package cost

import (
	"math/rand"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
)

func TestUnknownMethodsError(t *testing.T) {
	f := newFixture(t, 1000, 10)
	m := NewModel(16, 0)
	j := &lplan.Join{L: f.scanEmp("e"), R: f.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinMethod(77)}
	if _, err := m.Info(j); err == nil {
		t.Errorf("unknown join method costed")
	}
	g := &lplan.GroupBy{In: f.scanEmp("e"),
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs:      []expr.Agg{{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "c"}}},
		Method:    lplan.AggMethod(77)}
	if _, err := m.Info(g); err == nil {
		t.Errorf("unknown agg method costed")
	}
	mj := &lplan.Join{L: f.scanEmp("e"), R: f.scanDept("d"),
		Preds:  []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "dno"), expr.Col("d", "dno"))},
		Method: lplan.JoinMerge}
	if _, err := m.Info(mj); err == nil {
		t.Errorf("merge join without equi predicate costed")
	}
}

func TestUnanalyzedTableFallback(t *testing.T) {
	f := newFixture(t, 100, 5)
	// Wipe the stats: the model must fall back to physical file counts.
	f.emp.Stats.Rows = 0
	f.emp.Stats.Pages = 0
	m := NewModel(16, 0)
	info, err := m.Info(f.scanEmp("e"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 100 || info.Cost <= 0 {
		t.Fatalf("fallback info = %+v", info)
	}
}

func TestSortNodeInfoAlreadySorted(t *testing.T) {
	f := newFixture(t, 5000, 20)
	m := NewModel(4, 0)
	s1 := &lplan.Sort{In: f.scanEmp("e"), By: []schema.ColID{{Rel: "e", Name: "dno"}}}
	s2 := &lplan.Sort{In: s1, By: []schema.ColID{{Rel: "e", Name: "dno"}}}
	i1, err := m.Info(s1)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := m.Info(s2)
	if err != nil {
		t.Fatal(err)
	}
	if i2.Cost != i1.Cost {
		t.Fatalf("re-sorting sorted input should be free: %g vs %g", i2.Cost, i1.Cost)
	}
}

// TestSortNodeInfoDesc: a DESC key sorts even an input already in the key's
// ascending order, and leaves no output order behind, so a Sort above it
// pays again.
func TestSortNodeInfoDesc(t *testing.T) {
	f := newFixture(t, 5000, 20)
	m := NewModel(4, 0)
	dno := []schema.ColID{{Rel: "e", Name: "dno"}}
	asc := &lplan.Sort{In: f.scanEmp("e"), By: dno}
	desc := &lplan.Sort{In: asc, By: dno, Desc: []bool{true}}
	again := &lplan.Sort{In: desc, By: dno}
	ia, err := m.Info(asc)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Info(desc)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := m.Info(again)
	if err != nil {
		t.Fatal(err)
	}
	sortCost := m.SortCost(ia.Pages)
	if sortCost == 0 {
		t.Fatal("input fits the pool; the check would be vacuous")
	}
	if id.Cost != ia.Cost+sortCost || id.Order != nil {
		t.Errorf("DESC over ascending input: cost %g order %v, want %g and no order", id.Cost, id.Order, ia.Cost+sortCost)
	}
	if ig.Cost != id.Cost+sortCost || len(ig.Order) != 1 {
		t.Errorf("ascending over DESC output: cost %g order %v, want %g and the key's order", ig.Cost, ig.Order, id.Cost+sortCost)
	}
}

// TestOptimalityPropertyRandom: replacing any plan's input with a cheaper
// plan producing statistically identical output never increases the
// parent's cost beyond the delta — the principle of optimality the paper
// requires of the cost model. We check the weaker, sufficient monotonicity:
// parent cost strictly increases with child cost when everything else is
// fixed (here: adding a gratuitous sort below).
func TestOptimalityPropertyRandom(t *testing.T) {
	f := newFixture(t, 30000, 300)
	r := rand.New(rand.NewSource(9))
	m := NewModel(6, 0)
	for trial := 0; trial < 20; trial++ {
		cheap := lplan.Node(f.scanEmp("e"))
		costly := lplan.Node(&lplan.Sort{In: f.scanEmp("e"),
			By: []schema.ColID{{Rel: "e", Name: "sal"}}})
		ci, err := m.Info(cheap)
		if err != nil {
			t.Fatal(err)
		}
		xi, err := m.Info(costly)
		if err != nil {
			t.Fatal(err)
		}
		if xi.Cost <= ci.Cost {
			t.Fatalf("sorted child should cost more")
		}
		mkParent := func(in lplan.Node) lplan.Node {
			switch r.Intn(2) {
			case 0:
				return &lplan.Join{L: in, R: f.scanDept("d"),
					Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
					Method: lplan.JoinHash}
			default:
				return &lplan.GroupBy{In: in,
					GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
					Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"),
						Out: schema.ColID{Rel: "g", Name: "s"}}},
					Method: lplan.AggHash}
			}
		}
		// Same parent shape over both children (reseed r deterministically).
		shape := r.Intn(2)
		_ = shape
		pCheap := mkParent(cheap)
		r2 := rand.New(rand.NewSource(int64(trial)))
		_ = r2
		var pCostly lplan.Node
		switch pCheap.(type) {
		case *lplan.Join:
			pCostly = &lplan.Join{L: costly, R: f.scanDept("d"),
				Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
				Method: lplan.JoinHash}
		default:
			pCostly = &lplan.GroupBy{In: costly,
				GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
				Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e", "sal"),
					Out: schema.ColID{Rel: "g", Name: "s"}}},
				Method: lplan.AggHash}
		}
		pc, err := m.Info(pCheap)
		if err != nil {
			t.Fatal(err)
		}
		px, err := m.Info(pCostly)
		if err != nil {
			t.Fatal(err)
		}
		if px.Cost < pc.Cost {
			t.Fatalf("trial %d: costlier child produced cheaper parent: %g < %g",
				trial, px.Cost, pc.Cost)
		}
	}
}

func TestCPUWeightMonotone(t *testing.T) {
	f := newFixture(t, 10000, 50)
	pred := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))
	j := &lplan.Join{L: f.scanEmp("e"), R: f.scanDept("d"),
		Preds: []expr.Expr{pred}, Method: lplan.JoinHash}
	var prev float64 = -1
	for _, w := range []float64{0, 0.0001, 0.01} {
		m := NewModel(64, w)
		info, err := m.Info(j)
		if err != nil {
			t.Fatal(err)
		}
		if info.Cost <= prev {
			t.Fatalf("cost not increasing with CPU weight: %g after %g", info.Cost, prev)
		}
		prev = info.Cost
	}
}
