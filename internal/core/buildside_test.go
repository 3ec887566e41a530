package core

import (
	"fmt"
	"testing"

	"aggview/internal/cost"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/storage"
)

// TestHashJoinsBuildOnTheCheaperSide is the build-side oracle. The executor
// builds a hash join's table on R, and the search picks which input that is
// for an inner join. So in every golden winner and every alternative, each
// inner Join[hash] must cost no more, by a fresh model's tree walk, than the
// same join with its inputs swapped; on a tie, R must be the input with no
// more estimated pages.
func TestHashJoinsBuildOnTheCheaperSide(t *testing.T) {
	checked := 0
	forEachGoldenSearch(t, goldenGroups(t), func(name string, q *qblock.Query, opts Options, _ *storage.Store) {
		where := fmt.Sprintf("%s mode=%v nohash=%v pool=%d", name, opts.Mode, opts.NoHashJoin, opts.PoolPages)
		plan, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		checked += checkBuildSides(t, where+" winner", plan.Root, opts)
		alts, _, err := Alternatives(q, opts)
		if err != nil {
			t.Fatalf("%s: Alternatives: %v", where, err)
		}
		for i, a := range alts {
			checked += checkBuildSides(t, fmt.Sprintf("%s alternative %d %q", where, i, a.Label), a.Root, opts)
		}
	})
	if checked == 0 {
		t.Fatal("no inner hash join in the golden grid")
	}
}

// checkBuildSides checks every inner hash join of a plan against its
// swapped twin and returns how many it checked.
func checkBuildSides(t *testing.T, where string, root lplan.Node, opts Options) int {
	t.Helper()
	model := cost.NewModel(opts.PoolPages, opts.CPUWeight)
	info := func(n lplan.Node) *cost.Info {
		in, err := model.Info(n)
		if err != nil {
			t.Fatalf("%s: costing %s: %v", where, n.Describe(), err)
		}
		return in
	}
	checked := 0
	var walk func(n lplan.Node)
	walk = func(n lplan.Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		j, ok := n.(*lplan.Join)
		if !ok || j.Method != lplan.JoinHash || j.Type != lplan.JoinInner {
			return
		}
		checked++
		swapped := &lplan.Join{L: j.R, R: j.L, Type: j.Type, Preds: j.Preds, Proj: j.Proj, Method: j.Method}
		built, other := info(j).Cost, info(swapped).Cost
		l, r := info(j.L).Pages, info(j.R).Pages
		switch {
		case built > other:
			t.Errorf("%s: %s builds on %.0f pages at cost %v; building on the %.0f-page input costs %v\n%s",
				where, j.Describe(), r, built, l, other, lplan.Format(root))
		case built == other && r > l:
			t.Errorf("%s: %s ties its swap at cost %v but builds on %.0f pages, not %.0f\n%s",
				where, j.Describe(), built, r, l, lplan.Format(root))
		}
	}
	walk(root)
	return checked
}
