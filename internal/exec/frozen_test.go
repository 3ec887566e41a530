package exec

import (
	"strings"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// checkLabels requires every operator of the tree to have run under the
// label its twin in the reference tree describes itself with.
func checkLabels(t *testing.T, col *obs.Collector, n, ref lplan.Node) {
	t.Helper()
	if st := col.Op(n); st == nil || st.Label != ref.Describe() {
		t.Errorf("operator %q ran as %+v", ref.Describe(), st)
	}
	for i, c := range n.Children() {
		checkLabels(t, col, c, ref.Children()[i])
	}
}

// paramGroupBy is a group-by over a scan whose filter reads `?1`.
func (e *env) paramGroupBy() lplan.Node {
	s := e.scanEmp("e")
	s.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.NewParam(0))}
	return &lplan.GroupBy{
		In:        s,
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "g", Name: "asal"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
		},
		Method: lplan.AggHash,
	}
}

// TestFrozenPlanOpensWithLessWork: validation, labels and expression
// compilation depend only on the plan. A Program holds them, so opening it
// allocates fewer objects than OpenCursor on the same tree — which compiles
// on every open — and the labels a run reports are the same Describe()
// lines either way.
func TestFrozenPlanOpensWithLessWork(t *testing.T) {
	e := newEnv(t, 64, 300, 10)
	build := func() lplan.Node {
		s := e.scanEmp("e")
		s.Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.NewParam(0))}
		return &lplan.Filter{
			In: &lplan.GroupBy{
				In: &lplan.Join{
					L: s, R: e.scanDept("d"), Method: lplan.JoinHash,
					Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
				},
				GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
				Aggs: []expr.Agg{
					{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"), Out: schema.ColID{Rel: "g", Name: "asal"}},
					{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
				},
				Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "n"), expr.IntLit(1))},
				Method: lplan.AggHash,
			},
			Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "asal"), expr.FloatLit(0))},
		}
	}
	unfrozen, frozen := build(), build()
	lplan.Freeze(frozen)
	prog, err := Compile(frozen)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewInt(60)}
	open := func(run func(*Executor) (*Cursor, error)) *obs.Collector {
		col := obs.NewCollector()
		cur, err := run(New(e.store).WithCollector(col).WithParams(params))
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		return col
	}
	openTree := func(ex *Executor) (*Cursor, error) { return ex.OpenCursor(unfrozen) }
	openProg := func(ex *Executor) (*Cursor, error) { return ex.Open(prog) }
	reference := build() // never opened, never frozen
	checkLabels(t, open(openTree), unfrozen, reference)
	checkLabels(t, open(openProg), frozen, reference)
	perTree := testing.AllocsPerRun(20, func() { open(openTree) })
	perProg := testing.AllocsPerRun(20, func() { open(openProg) })
	t.Logf("objects per open+close: tree %.0f, compiled program %.0f", perTree, perProg)
	if perProg >= perTree {
		t.Errorf("opening a compiled program allocated %.0f objects, opening the tree %.0f: compile work is redone per run",
			perProg, perTree)
	}

	// Freezing and compiling never grant a verdict: an illegal tree stays
	// rejected after Freeze, by the compiler and by the oracle.
	bad := e.scanEmp("e")
	bad.Filter = []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("zz", "x"), expr.IntLit(1))}
	lplan.Freeze(bad)
	if _, err := Compile(bad); err == nil {
		t.Errorf("compiler accepted an invalid frozen plan")
	}
	if _, err := Naive(e.store, bad, nil); err == nil {
		t.Errorf("oracle accepted an invalid frozen plan")
	}
}

// TestProgramReadsParamSlots: one compiled Program runs with any number of
// parameter vectors, each answer equal to the oracle's under the same
// vector, and a slot past the vector is an arity error when it is read.
func TestProgramReadsParamSlots(t *testing.T) {
	e := newEnv(t, 64, 300, 10)
	plan := e.paramGroupBy()
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range []int64{18, 30, 45, 70} {
		params := []types.Value{types.NewInt(age)}
		cur, err := New(e.store).WithParams(params).Open(prog)
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{Schema: cur.Schema()}
		for {
			row, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got.Rows = append(got.Rows, row.Clone())
		}
		cur.Close()
		want, err := Naive(e.store, plan, params)
		if err != nil {
			t.Fatal(err)
		}
		if !BagEqual(got, want) {
			t.Errorf("age < %d: program %d rows, oracle %d", age, len(got.Rows), len(want.Rows))
		}
	}
	if _, err := New(e.store).Run(plan); err == nil || !strings.Contains(err.Error(), "parameter ?1 is not bound (0 value(s) supplied)") {
		t.Errorf("run without a vector: err = %v", err)
	}
}

// BenchmarkOpenCursor opens, drains and closes a group-by over a scan whose
// filter reads one `?`: as the engine runs a cached plan (frozen and
// compiled once, then opened) and as the same tree unfrozen through
// OpenCursor, which compiles it on every open. The difference is the stage
// a compiled plan no longer repeats per run.
func BenchmarkOpenCursor(b *testing.B) {
	e := newEnv(b, 64, 300, 10)
	params := []types.Value{types.NewInt(45)}
	drain := func(cur *Cursor, err error) {
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := cur.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		cur.Close()
	}
	b.Run("compiled", func(b *testing.B) {
		plan := e.paramGroupBy()
		lplan.Freeze(plan)
		prog, err := Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drain(New(e.store).WithParams(params).Open(prog))
		}
	})
	b.Run("unfrozen", func(b *testing.B) {
		plan := e.paramGroupBy()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drain(New(e.store).WithParams(params).OpenCursor(plan))
		}
	})
}
