package lplan

// frozen is the memo Freeze leaves on a node: what a run of the plan needs
// from the node and what depends on nothing but the tree — the same for
// every run, so computed once. Every node type embeds it; the zero value
// means "not frozen" and changes nothing.
type frozen struct {
	label string // Describe(), which never renders empty
	valid bool   // the subtree rooted here passed Validate
}

func (f *frozen) memo() *frozen { return f }

// memoOf returns the node's memo, or nil for a node type from outside this
// package (which is then described and validated on every call).
func memoOf(n Node) *frozen {
	if m, ok := n.(interface{ memo() *frozen }); ok {
		return m.memo()
	}
	return nil
}

// Freeze computes, once, everything about the tree that its executions
// share: every lazily cached schema, each group-by's inner schema, each
// node's Describe() label, and the tree's validity — after Freeze, Schema,
// InnerSchema, Describe and (on a legal tree) Validate are field reads. A
// tree that is not legal is frozen all the same and Validate keeps
// reporting its violation.
//
// Freezing is what makes a compiled plan shareable. The memo fields are
// written without synchronization, which is fine while a plan belongs to a
// single goroutine but would be a data race once one immutable tree serves
// concurrent executions — e.g. from the engine's plan cache. Freezing at
// compile time, before the plan is published, turns every later access into
// a plain read of an already-set field; the publication itself (under the
// cache's mutex or an atomic pointer store) establishes the happens-before
// edge. A frozen subtree is left untouched, so freezing a tree that shares
// nodes with a published one writes nothing the other's readers can see.
// The tree must not be modified afterwards.
func Freeze(n Node) {
	if n == nil {
		return
	}
	m := memoOf(n)
	if m != nil && m.label != "" {
		return
	}
	for _, c := range n.Children() {
		Freeze(c) // children first: Validate below stops at their memo
	}
	n.Schema()
	if g, ok := n.(*GroupBy); ok {
		g.innerOnce = g.innerSchema(g.In.Schema())
	}
	if m != nil {
		m.valid = Validate(n) == nil
		m.label = n.Describe()
	}
}
