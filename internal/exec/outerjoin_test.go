package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Outer-join executor tests: every (join type, method, memory regime)
// combination runs differentially against the naive oracle over data with
// NULL join keys and unmatched rows on both sides — the inputs where
// padding, NULL-key non-matching, and the FULL drain actually matter.

// newNullEnv builds emp/dept where a fraction of emp.dno is NULL, a
// fraction references departments that do not exist (unmatched preserved
// rows), and dept has more departments than emp references (unmatched
// build rows for FULL drains).
func newNullEnv(t *testing.T, poolPages, nEmp, nDept int) *env {
	t.Helper()
	st := storage.NewStore(poolPages)
	c := catalog.New(st)
	emp, err := c.CreateTable("emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "age"}, Type: types.KindInt},
	}, []string{"eno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dept, err := c.CreateTable("dept", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "budget"}, Type: types.KindFloat},
	}, []string{"dno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < nEmp; i++ {
		dno := types.NewInt(int64(r.Intn(nDept + nDept/2))) // ~1/3 dangling
		if r.Intn(5) == 0 {
			dno = types.Null() // NULL keys match nothing
		}
		if err := c.Insert(emp, types.Row{
			types.NewInt(int64(i)),
			dno,
			types.NewFloat(float64(1000 + r.Intn(4000))),
			types.NewInt(int64(20 + r.Intn(45))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDept; i++ {
		if err := c.Insert(dept, types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(100000 + 1000*i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Analyze(emp); err != nil {
		t.Fatal(err)
	}
	if err := c.Analyze(dept); err != nil {
		t.Fatal(err)
	}
	// Re-resolve: mutations publish fresh copy-on-write Table objects, so
	// the handles returned by CreateTable describe the pre-insert version.
	emp, _ = c.Table("emp")
	dept, _ = c.Table("dept")
	return &env{store: st, cat: c, emp: emp, dept: dept}
}

func outerJoinPlan(e *env, jt lplan.JoinType, m lplan.JoinMethod, residual bool) *lplan.Join {
	preds := []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))}
	if residual {
		// A non-equi conjunct riding on the ON condition: rows that match
		// the key but fail it must still be padded, not dropped.
		preds = append(preds, expr.NewCmp(expr.LT, expr.Col("e", "sal"), expr.Col("d", "budget")))
	}
	return &lplan.Join{L: e.scanEmp("e"), R: e.scanDept("d"), Type: jt, Preds: preds, Method: m}
}

// TestOuterJoinDifferential sweeps LEFT and FULL joins across both
// padding-capable methods, in-memory and spilling (grace) regimes, with and
// without a residual predicate, against the naive oracle.
func TestOuterJoinDifferential(t *testing.T) {
	for _, pool := range []int{4, 64} { // 4 pages forces grace partitioning / block loops
		e := newNullEnv(t, pool, 900, 30)
		for _, jt := range []lplan.JoinType{lplan.JoinLeft, lplan.JoinFull} {
			for _, m := range []lplan.JoinMethod{lplan.JoinHash, lplan.JoinBlockNL} {
				for _, residual := range []bool{false, true} {
					name := fmt.Sprintf("pool=%d/%s/%s/residual=%v", pool, jt, m, residual)
					t.Run(name, func(t *testing.T) {
						res := runBoth(t, e, outerJoinPlan(e, jt, m, residual))
						// Preserved side: every emp row appears at least once.
						if len(res.Rows) < 900 {
							t.Fatalf("%s produced %d rows; left side has 900", name, len(res.Rows))
						}
					})
				}
			}
		}
	}
}

// TestOuterJoinPadding pins the padding semantics directly: NULL join keys
// never match, unmatched preserved rows come out exactly once with NULL
// right columns, and a FULL join additionally drains unmatched build rows.
func TestOuterJoinPadding(t *testing.T) {
	for _, m := range []lplan.JoinMethod{lplan.JoinHash, lplan.JoinBlockNL} {
		e := newNullEnv(t, 64, 200, 10)
		left := runBoth(t, e, outerJoinPlan(e, lplan.JoinLeft, m, false))
		schemaLen := len(left.Rows[0])
		seen := map[int64]int{}
		for _, r := range left.Rows {
			eno := r[0].Int()
			seen[eno]++
			dnoOut := r[schemaLen-2] // d.dno
			if r[1].IsNull() && !dnoOut.IsNull() {
				t.Fatalf("%s: NULL-keyed emp row matched dept %v", m, dnoOut)
			}
		}
		for eno, n := range seen {
			if n < 1 {
				t.Fatalf("%s: emp %d missing from LEFT join", m, eno)
			}
		}

		full := runBoth(t, e, outerJoinPlan(e, lplan.JoinFull, m, false))
		matchedDepts := map[int64]bool{}
		paddedDepts := map[int64]bool{}
		for _, r := range full.Rows {
			if r[schemaLen-2].IsNull() {
				continue
			}
			dno := r[schemaLen-2].Int()
			if r[0].IsNull() {
				paddedDepts[dno] = true
			} else {
				matchedDepts[dno] = true
			}
		}
		for dno := range paddedDepts {
			if matchedDepts[dno] {
				t.Fatalf("%s: dept %d both matched and drain-padded", m, dno)
			}
		}
		if len(matchedDepts)+len(paddedDepts) != 10 {
			t.Fatalf("%s: FULL join covered %d+%d of 10 depts", m, len(matchedDepts), len(paddedDepts))
		}
	}
}

// TestOuterJoinCountBugExec is the executor-level COUNT-bug regression: a
// group-by above a LEFT join with unmatched preserved rows must count
// padded rows in COUNT(*) but not in COUNT(col) — the padded side's column
// is NULL and NULL arguments never count.
func TestOuterJoinCountBugExec(t *testing.T) {
	e := newNullEnv(t, 16, 400, 12)
	for _, am := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
		for _, jm := range []lplan.JoinMethod{lplan.JoinHash, lplan.JoinBlockNL} {
			g := &lplan.GroupBy{
				In:        outerJoinPlan(e, lplan.JoinLeft, jm, false),
				GroupCols: []schema.ColID{{Rel: "e", Name: "eno"}},
				Aggs: []expr.Agg{
					{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "star"}},
					{Kind: expr.AggCount, Arg: expr.Col("d", "dno"), Out: schema.ColID{Rel: "v", Name: "cd"}},
				},
				Method: am,
			}
			res := runBoth(t, e, g)
			if len(res.Rows) != 400 {
				t.Fatalf("%s/%s: groups = %d, want 400 (one per emp)", am, jm, len(res.Rows))
			}
			sawPadded := false
			for _, r := range res.Rows {
				star, cd := r[1].Int(), r[2].Int()
				if star < 1 {
					t.Fatalf("%s/%s: COUNT(*) = %d for emp %v; padding lost the row", am, jm, star, r[0])
				}
				if cd > star {
					t.Fatalf("%s/%s: COUNT(d.dno)=%d > COUNT(*)=%d", am, jm, cd, star)
				}
				if cd == 0 {
					// Unmatched emp: exactly one padded row.
					sawPadded = true
					if star != 1 {
						t.Fatalf("%s/%s: unmatched emp %v has COUNT(*)=%d, want 1", am, jm, r[0], star)
					}
				}
			}
			if !sawPadded {
				t.Fatalf("%s/%s: fixture produced no unmatched emp rows", am, jm)
			}
		}
	}
}

// TestOuterJoinMethodRejections: only hash and block-NL implement padding;
// the executor refuses an outer merge join outright rather than silently
// running it as an inner join.
func TestOuterJoinMethodRejections(t *testing.T) {
	e := newNullEnv(t, 16, 50, 5)
	j := outerJoinPlan(e, lplan.JoinLeft, lplan.JoinMerge, false)
	if _, err := New(e.store).Run(j); err == nil {
		t.Fatalf("merge accepted an outer join")
	}
}
