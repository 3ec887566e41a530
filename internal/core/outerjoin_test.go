package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/cost"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Outer-join planning tests. The DP reorders an outer-join block's joins
// under the precedence rule, places WHERE conjuncts (scan filter, join
// predicate, or residual above every join) and picks physical methods by
// cost; the correctness oracle is a canonical plan that takes no such
// liberties — full scans in FROM order, each ON condition only on its own
// join, every WHERE conjunct in one Filter above the whole chain — run
// through the naive executor.

// outerEnv is emp/dept plus proj(pno, dno, cost), with NULL and dangling
// dnos in both emp and proj.
type outerEnv struct {
	store *storage.Store
	cat   *catalog.Catalog
	emp   *catalog.Table
	dept  *catalog.Table
	proj  *catalog.Table
}

func newOuterEnv(t *testing.T, nEmp, nDept, nProj int) *outerEnv {
	t.Helper()
	st := storage.NewStore(64)
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
	proj, err := c.CreateTable("proj", []schema.Column{
		{ID: schema.ColID{Name: "pno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "cost"}, Type: types.KindFloat},
	}, []string{"pno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	maybeNullDno := func(span int) types.Value {
		if r.Intn(6) == 0 {
			return types.Null()
		}
		return types.NewInt(int64(r.Intn(span))) // span > nDept ⇒ dangling keys
	}
	for i := 0; i < nEmp; i++ {
		if err := c.Insert(emp, types.Row{
			types.NewInt(int64(i)),
			maybeNullDno(nDept + nDept/3),
			types.NewFloat(float64(1000 + r.Intn(3000))),
			types.NewInt(int64(18 + r.Intn(50))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDept; i++ {
		if err := c.Insert(dept, types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(100000 + r.Intn(900000))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nProj; i++ {
		if err := c.Insert(proj, types.Row{
			types.NewInt(int64(i)),
			maybeNullDno(nDept + nDept/3),
			types.NewFloat(float64(10 + r.Intn(500))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []*catalog.Table{emp, dept, proj} {
		if err := c.Analyze(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return &outerEnv{store: st, cat: c, emp: emp, dept: dept, proj: proj}
}

// outerJoinQuery builds: emp e, dept d (a comma step, its join predicate in
// WHERE) LEFT JOIN proj p ON d.dno = p.dno, WHERE e.age < 40 (never-padded
// single alias → scan filter) AND e.dno = d.dno (join predicate) AND
// p.cost > 100 when withPaddedFilter (references the padded alias → must
// stay residual above the chain). Optionally grouped by d.dno with the
// COUNT-bug pair.
func outerJoinQuery(e *outerEnv, withPaddedFilter, grouped bool) *qblock.Query {
	top := &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
			{Alias: "p", Table: e.proj},
		},
		OuterSteps: []qblock.OuterStep{
			{Alias: "d", Type: lplan.JoinInner},
			{Alias: "p", Type: lplan.JoinLeft,
				On: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.Col("p", "dno"))}},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(40)),
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
		},
	}
	if withPaddedFilter {
		top.Conjs = append(top.Conjs,
			expr.NewCmp(expr.GT, expr.Col("p", "cost"), expr.FloatLit(100)))
	}
	if grouped {
		top.GroupCols = []schema.ColID{{Rel: "d", Name: "dno"}}
		top.Aggs = []expr.Agg{
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "star"}},
			{Kind: expr.AggCount, Arg: expr.Col("p", "pno"), Out: schema.ColID{Rel: "v", Name: "cp"}},
			{Kind: expr.AggSum, Arg: expr.Col("p", "cost"), Out: schema.ColID{Rel: "v", Name: "sc"}},
		}
		top.Outputs = []lplan.NamedExpr{
			{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			{E: expr.Col("v", "star"), As: schema.ColID{Rel: "", Name: "star"}},
			{E: expr.Col("v", "cp"), As: schema.ColID{Rel: "", Name: "cp"}},
			{E: expr.Col("v", "sc"), As: schema.ColID{Rel: "", Name: "sc"}},
		}
	} else {
		top.Outputs = []lplan.NamedExpr{
			{E: expr.Col("e", "eno"), As: schema.ColID{Rel: "", Name: "eno"}},
			{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			{E: expr.Col("p", "pno"), As: schema.ColID{Rel: "", Name: "pno"}},
		}
	}
	return &qblock.Query{Top: top}
}

// canonicalOuterPlan rebuilds the block with no planner liberties: full
// scans, ON predicates only on the joins, all WHERE conjuncts in a single
// Filter above the chain, the group-by (if any) above that.
func canonicalOuterPlan(e *outerEnv, q *qblock.Query) lplan.Node {
	top := q.Top
	var node lplan.Node = &lplan.Scan{Alias: top.Rels[0].Alias, Table: top.Rels[0].Table}
	for i, step := range top.OuterSteps {
		rel := top.Rels[i+1]
		scan := &lplan.Scan{Alias: rel.Alias, Table: rel.Table}
		if step.Type == lplan.JoinRight {
			// RIGHT is LEFT with the inputs swapped — the definition, applied
			// here independently of the planner's normalization.
			node = &lplan.Join{L: scan, R: node, Type: lplan.JoinLeft, Preds: step.On, Method: lplan.JoinBlockNL}
			continue
		}
		node = &lplan.Join{
			L:      node,
			R:      scan,
			Type:   step.Type,
			Preds:  step.On,
			Method: lplan.JoinBlockNL,
		}
	}
	if len(top.Conjs) > 0 {
		node = &lplan.Filter{In: node, Preds: top.Conjs}
	}
	if top.HasGroupBy() {
		return &lplan.GroupBy{
			In:        node,
			GroupCols: top.GroupCols,
			Aggs:      top.Aggs,
			Having:    top.Having,
			Outputs:   top.Outputs,
			Method:    lplan.AggHash,
		}
	}
	return &lplan.Project{In: node, Items: top.Outputs}
}

// usesHashJoin reports whether any join in the tree runs the hash method.
func usesHashJoin(n lplan.Node) bool {
	switch x := n.(type) {
	case *lplan.Join:
		return x.Method == lplan.JoinHash || usesHashJoin(x.L) || usesHashJoin(x.R)
	case *lplan.Filter:
		return usesHashJoin(x.In)
	case *lplan.Project:
		return usesHashJoin(x.In)
	case *lplan.GroupBy:
		return usesHashJoin(x.In)
	}
	return false
}

// outerJoinShapes are outer-join blocks over newOuterEnv's tables, each
// bound from SQL: inner joins after a LEFT step, with and without a
// reference to the padded relation (in an equality between two earlier
// relations, too, and in one whose columns other inner joins equate), a
// LEFT step whose ON references two earlier relations, and RIGHT and FULL
// steps in mid-chain.
var outerJoinShapes = []struct{ name, sql string }{
	{"inner-after-left-padded", `select d.dno, e.eno, p.pno
		from dept d left join proj p on p.dno = d.dno and p.cost > 200
		     join emp e on e.dno = p.dno
		where e.age < 40`},
	{"inner-after-left-unpadded", `select d.dno, count(*) as n, count(p.pno) as np, sum(e.sal) as s
		from dept d left join proj p on p.dno = d.dno and p.cost > 200
		     join emp e on e.dno = d.dno
		group by d.dno`},
	{"inner-on-padded-only", `select d.dno, p.pno, d2.dno as d2no
		from dept d left join proj p on p.dno = d.dno
		     join dept d2 on p.cost > 300 and d2.budget < 300000`},
	{"inner-on-earlier-equality", `select d.dno, e.eno, p.pno
		from dept d left join proj p on p.dno = d.dno
		     join emp e on e.dno = d.dno and p.dno = d.dno
		where e.age > 60`},
	{"inner-on-padded-equality-class", `select d.dno, d1.dno as d1no, p.pno, e.eno
		from dept d join dept d1 on d1.dno = d.dno
		     left join proj p on p.dno = d1.dno and d.dno < 4
		     join emp e on e.dno = d1.dno and d1.dno = p.dno`},
	{"left-on-two-relations", `select e.eno, d.dno, p.pno
		from emp e join dept d on d.dno = e.dno
		     left join proj p on p.dno = d.dno and p.cost * 10 < e.sal
		where e.age < 30`},
	{"right-mid-chain", `select d2.dno, count(*) as n, count(e.eno) as ne, max(p2.cost) as m
		from emp e join proj p on p.dno = e.dno and p.cost < 250
		     right join dept d2 on d2.dno = e.dno
		     join proj p2 on p2.dno = d2.dno
		where p2.cost > 300 group by d2.dno`},
	{"full-mid-chain", `select d.dno, e.eno, p2.pno
		from emp e join proj p on p.dno = e.dno and p.cost < 100
		     full join dept d on d.dno = e.dno
		     left join proj p2 on p2.dno = d.dno and p2.cost > 400
		where e.age < 25 or d.budget < 300000`},
}

// TestOuterJoinVsCanonical is the soundness oracle: every plan the search
// finalizes for an outer-join block — not only the winner — returns the
// canonical plan's rows, in every mode, with and without hash joins, at
// batch size 1 and the default; a tree walk costs it as the search did and
// claims for each subtree the order lplan.Order gives. The blocks are
// outerJoinQuery's, outerJoinShapes and random chains (randomOuterChain)
// over smaller tables.
func TestOuterJoinVsCanonical(t *testing.T) {
	e := newOuterEnv(t, 600, 15, 120)
	for _, withPaddedFilter := range []bool{false, true} {
		for _, grouped := range []bool{false, true} {
			name := fmt.Sprintf("inner-then-left paddedFilter=%v grouped=%v", withPaddedFilter, grouped)
			checkAgainstCanonical(t, e, name, outerJoinQuery(e, withPaddedFilter, grouped))
		}
	}
	for _, s := range outerJoinShapes {
		checkAgainstCanonical(t, e, s.name, bindGolden(t, e.cat, s.sql))
	}
	small := newOuterEnv(t, 60, 8, 30)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		src := randomOuterChain(r)
		checkAgainstCanonical(t, small, src, bindGolden(t, small.cat, src))
	}
}

// checkAgainstCanonical runs TestOuterJoinVsCanonical's checks on one block.
func checkAgainstCanonical(t *testing.T, e *outerEnv, name string, q *qblock.Query) {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := exec.Naive(e.store, canonicalOuterPlan(e, q), nil)
	if err != nil {
		t.Fatalf("%s: naive canonical: %v", name, err)
	}
	for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
		for _, noHash := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Mode, opts.NoHashJoin = mode, noHash
			alts, _, err := Alternatives(q, opts)
			if err != nil || len(alts) == 0 {
				t.Fatalf("%s %v noHash=%v: %d alternatives, err %v", name, mode, noHash, len(alts), err)
			}
			for _, a := range alts {
				where := fmt.Sprintf("%s %v noHash=%v %q", name, mode, noHash, a.Label)
				if err := lplan.Validate(a.Root); err != nil {
					t.Fatalf("%s: illegal plan: %v\n%s", where, err, lplan.Format(a.Root))
				}
				if noHash && usesHashJoin(a.Root) {
					t.Fatalf("%s: NoHashJoin plan uses a hash join:\n%s", where, lplan.Format(a.Root))
				}
				checkTreeWalk(t, where, a.Root, a.Info, opts)
				model := cost.NewModel(opts.PoolPages, opts.CPUWeight)
				walkPlan(a.Root, func(n lplan.Node) {
					if info, err := model.Info(n); err != nil || !slices.Equal(info.Order, lplan.Order(n)) {
						t.Fatalf("%s: the model claims order %v (err %v), the rule %v:\n%s", where, info.Order, err, lplan.Order(n), lplan.Format(n))
					}
				})
				for _, bs := range []int{1, exec.DefaultBatchSize} {
					got, err := exec.New(e.store).WithBatchSize(bs).Run(a.Root)
					if err != nil {
						t.Fatalf("%s batch=%d: run: %v\n%s", where, bs, err, lplan.Format(a.Root))
					}
					if !exec.BagEqual(got, want) {
						t.Fatalf("%s batch=%d: %d rows, the canonical plan %d, or different ones\n%s",
							where, bs, len(got.Rows), len(want.Rows), lplan.Format(a.Root))
					}
				}
			}
		}
	}
}

// randomOuterChain writes a FROM chain of three or four of newOuterEnv's
// tables, each step inner, LEFT, RIGHT or FULL, its ON an equality on dno
// with an earlier relation, sometimes with a filter or an equality between
// two earlier relations; a WHERE filter, sometimes; and either every
// relation's dno or a grouped count over them.
func randomOuterChain(r *rand.Rand) string {
	tables := []string{"emp", "dept", "proj"}
	types := []string{"join", "join", "left outer join", "left outer join", "right outer join", "full outer join"}
	n := 3 + r.Intn(2)
	var from, outs strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&outs, ", r%d.dno as d%d", i, i)
		if i == 0 {
			fmt.Fprintf(&from, "%s r0", tables[r.Intn(3)])
			continue
		}
		typ := types[r.Intn(len(types))]
		if i == n-1 && !strings.Contains(from.String(), "outer") {
			typ = "left outer join" // at least one outer step
		}
		fmt.Fprintf(&from, " %s %s r%d on r%d.dno = r%d.dno", typ, tables[r.Intn(3)], i, i, r.Intn(i))
		if r.Intn(3) == 0 {
			fmt.Fprintf(&from, " and r%d.dno < %d", r.Intn(i+1), 2+r.Intn(6))
		}
		if i >= 2 && r.Intn(4) == 0 {
			fmt.Fprintf(&from, " and r%d.dno = r%d.dno", r.Intn(i), r.Intn(i))
		}
	}
	where := ""
	if r.Intn(2) == 0 {
		where = fmt.Sprintf(" where r%d.dno > %d", r.Intn(n), r.Intn(4))
	}
	if r.Intn(2) == 0 {
		g := r.Intn(n)
		return fmt.Sprintf("select r%d.dno as g, count(*) as n, count(r%d.dno) as c from %s%s group by r%d.dno", g, r.Intn(n), &from, where, g)
	}
	return fmt.Sprintf("select %s from %s%s", outs.String()[2:], &from, where)
}

// TestOuterChainRightAndFullNormalization: RIGHT steps are normalized to
// LEFT by input swap (no JoinRight survives planning), and FULL chains run
// correctly against the canonical oracle.
func TestOuterChainRightAndFullNormalization(t *testing.T) {
	e := newOuterEnv(t, 400, 12, 0)
	for _, jt := range []lplan.JoinType{lplan.JoinRight, lplan.JoinFull} {
		top := &qblock.Block{
			Rels: []*qblock.Rel{
				{Alias: "e", Table: e.emp},
				{Alias: "d", Table: e.dept},
			},
			OuterSteps: []qblock.OuterStep{
				{Alias: "d", Type: jt,
					On: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))}},
			},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e", "eno"), As: schema.ColID{Rel: "", Name: "eno"}},
				{E: expr.Col("d", "dno"), As: schema.ColID{Rel: "", Name: "dno"}},
			},
		}
		q := &qblock.Query{Top: top}
		plan, err := Optimize(q, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", jt, err)
		}
		var sawRight func(n lplan.Node) bool
		sawRight = func(n lplan.Node) bool {
			switch x := n.(type) {
			case *lplan.Join:
				return x.Type == lplan.JoinRight || sawRight(x.L) || sawRight(x.R)
			case *lplan.Filter:
				return sawRight(x.In)
			case *lplan.Project:
				return sawRight(x.In)
			case *lplan.GroupBy:
				return sawRight(x.In)
			}
			return false
		}
		if sawRight(plan.Root) {
			t.Fatalf("%s: JoinRight survived planning:\n%s", jt, lplan.Format(plan.Root))
		}
		got, err := exec.New(e.store).Run(plan.Root)
		if err != nil {
			t.Fatalf("%s: Run: %v", jt, err)
		}
		want, err := exec.Naive(e.store, canonicalOuterPlan(e, q), nil)
		if err != nil {
			t.Fatalf("%s: naive: %v", jt, err)
		}
		if !exec.BagEqual(got, want) {
			t.Fatalf("%s: optimized plan diverges from canonical (%d vs %d rows)", jt, len(got.Rows), len(want.Rows))
		}
	}
}

// TestOuterChainRejectsViews: an outer-join block cannot join aggregate
// views — group-bys cannot move across padding joins, so the multi-block
// machinery refuses outright.
func TestOuterChainRejectsViews(t *testing.T) {
	e := newOuterEnv(t, 50, 5, 0)
	q := outerJoinQuery(e, false, false)
	q.Views = []*qblock.AggView{{
		Alias: "b",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "b", Name: "asal"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
				{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
			},
		},
	}}
	if _, err := Optimize(q, DefaultOptions()); err == nil {
		t.Fatal("outer-join block joined to an aggregate view was accepted")
	}
}
