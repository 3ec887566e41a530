package lplan

// Freeze computes, once, the lazily cached parts of the tree that its
// executions share: every node's schema, each group-by's inner schema, and
// the Describe line of every scan, join, group-by and projection — after
// Freeze, Schema, InnerSchema and those Describe calls are field reads, so
// EXPLAIN's text and the executor's operator labels format each node once.
//
// Freezing is what makes a plan tree shareable. The cached fields are
// written without synchronization, which is fine while a plan belongs to a
// single goroutine but would be a data race once one immutable tree serves
// concurrent readers — e.g. from the engine's plan cache. Freezing at
// compile time, before the plan is published, turns every later access into
// a plain read of an already-set field; the publication itself (under the
// cache's mutex or an atomic pointer store) establishes the happens-before
// edge. Freeze writes only fields that are still unset, so freezing a tree
// that shares nodes with a published one writes nothing the other's readers
// can see. The tree must not be modified afterwards.
func Freeze(n Node) {
	if n == nil {
		return
	}
	for _, c := range n.Children() {
		Freeze(c)
	}
	n.Schema()
	switch t := n.(type) {
	case *Scan:
		freezeLabel(&t.labelOnce, t)
	case *Join:
		freezeLabel(&t.labelOnce, t)
	case *GroupBy:
		if t.innerOnce == nil {
			t.innerOnce = t.innerSchema(t.In.Schema())
		}
		freezeLabel(&t.labelOnce, t)
	case *Project:
		freezeLabel(&t.labelOnce, t)
	}
}

// freezeLabel caches n's Describe line in label, unless it is set.
func freezeLabel(label *string, n Node) {
	if *label == "" {
		*label = n.Describe()
	}
}
