package lplan

// Freeze computes, once, the lazily cached parts of the tree that its
// executions share: every node's schema and each group-by's inner schema —
// after Freeze, Schema and InnerSchema are field reads.
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
	if g, ok := n.(*GroupBy); ok && g.innerOnce == nil {
		g.innerOnce = g.innerSchema(g.In.Schema())
	}
}
