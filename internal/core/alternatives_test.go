package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// The paper's transformations are defined once, by the enumerator: pull-up
// is phiGroupBy over a phase-one plan, invariant grouping is minInvariantMask
// / dpRemovable, simple coalescing is partialSpecOf / coalescingTop. Their
// soundness is one condition checked against every candidate (Cohen & Nutt's
// framing): each complete plan the search finalizes — the losers on cost
// included — is a legal tree returning the bag the query returns as written.

// asWritten evaluates the query the way it is spelled — the traditional plan,
// every view grouped where it stands and the top group-by last — with the
// naive reference evaluator.
func asWritten(t *testing.T, store *storage.Store, q *qblock.Query) *exec.Result {
	t.Helper()
	opts := DefaultOptions()
	opts.Mode = ModeTraditional
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("traditional optimize: %v", err)
	}
	ref, err := exec.Naive(store, plan.Root, nil)
	if err != nil {
		t.Fatalf("naive: %v\n%s", err, plan.Explain())
	}
	return ref
}

// checkAlternatives asserts the soundness condition for one search: every
// alternative passes lplan.Validate and returns want, and Optimize hands out
// the cheapest of them (the first found winning ties) — same tree, same cost
// bits.
func checkAlternatives(t *testing.T, store *storage.Store, q *qblock.Query, opts Options, want *exec.Result) []Alternative {
	t.Helper()
	alts, err := Alternatives(q, opts)
	if err != nil {
		t.Fatalf("[%v] Alternatives: %v", opts.Mode, err)
	}
	if len(alts) == 0 {
		t.Fatalf("[%v] no alternatives", opts.Mode)
	}
	cheapest := 0
	for i, a := range alts {
		if err := lplan.Validate(a.Root); err != nil {
			t.Fatalf("[%v] alternative %q is illegal: %v\n%s", opts.Mode, a.Label, err, lplan.Format(a.Root))
		}
		got, err := exec.New(store).Run(a.Root)
		if err != nil {
			t.Fatalf("[%v] alternative %q: run: %v\n%s", opts.Mode, a.Label, err, lplan.Format(a.Root))
		}
		if !exec.BagEqual(got, want) {
			t.Fatalf("[%v] alternative %q returns %d rows, the query as written %d, or different ones\n%s",
				opts.Mode, a.Label, len(got.Rows), len(want.Rows), lplan.Format(a.Root))
		}
		if a.Cost < alts[cheapest].Cost {
			cheapest = i
		}
	}
	plan, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("[%v] Optimize: %v", opts.Mode, err)
	}
	best := alts[cheapest]
	if plan.Explain() != lplan.Format(best.Root) || math.Float64bits(plan.Cost) != math.Float64bits(best.Cost) {
		t.Fatalf("[%v] Optimize chose cost %v, the cheapest alternative %q costs %v\nchosen:\n%scheapest:\n%s",
			opts.Mode, plan.Cost, best.Label, best.Cost, plan.Explain(), lplan.Format(best.Root))
	}
	return alts
}

// labelsOf returns the distinct labels in search order.
func labelsOf(alts []Alternative) []string {
	var out []string
	for _, a := range alts {
		if !slices.Contains(out, a.Label) {
			out = append(out, a.Label)
		}
	}
	return out
}

// phiOf returns the pulled-up group-by of view alias in the first alternative
// labelled label: the group-by computing the view's aggregates.
func phiOf(t *testing.T, alts []Alternative, label, alias string) *lplan.GroupBy {
	t.Helper()
	var find func(n lplan.Node) *lplan.GroupBy
	find = func(n lplan.Node) *lplan.GroupBy {
		if g, ok := n.(*lplan.GroupBy); ok && len(g.Aggs) > 0 && g.Aggs[0].Out.Rel == alias {
			return g
		}
		for _, c := range n.Children() {
			if g := find(c); g != nil {
				return g
			}
		}
		return nil
	}
	for _, a := range alts {
		if a.Label != label {
			continue
		}
		if g := find(a.Root); g != nil {
			return g
		}
		t.Fatalf("alternative %q has no group-by for view %s\n%s", label, alias, lplan.Format(a.Root))
	}
	t.Fatalf("no alternative labelled %q among %v", label, labelsOf(alts))
	return nil
}

// smallPool is the regime the paper argues in: System-R joins and a pool the
// inputs do not fit, so early aggregation and pull-up both find takers.
func smallPool(mode Mode) Options {
	opts := DefaultOptions()
	opts.Mode, opts.PoolPages, opts.NoHashJoin = mode, 8, true
	return opts
}

// addNoKey creates nokey(dno, tag): no declared key, duplicate dno values.
func addNoKey(t *testing.T, e *env, seed int64, rows, nDept int) *catalog.Table {
	t.Helper()
	tb, err := e.cat.CreateTable("nokey", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "tag"}, Type: types.KindInt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		if err := e.cat.Insert(tb, types.Row{
			types.NewInt(int64(r.Intn(nDept))), types.NewInt(int64(r.Intn(5))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.cat.Analyze(tb); err != nil {
		t.Fatal(err)
	}
	tb, _ = e.cat.Table("nokey")
	return tb
}

// TestAlternativesProperty is experiments E3 and E4 as a property: over
// seeded micro-databases, every alternative of randomized instances of
// Example 1 (Figure 1's pull-up; Figure 4 when dept joins the view) and of
// Example 2 (Figure 2's push-downs) is legal and equal to the query as
// written.
func TestAlternativesProperty(t *testing.T) {
	aggKinds := []expr.AggKind{expr.AggSum, expr.AggAvg, expr.AggCount, expr.AggMin, expr.AggMax, expr.AggCountStar}
	cmpOps := []expr.CmpOp{expr.GT, expr.LT, expr.GE, expr.LE}
	modes := []Mode{ModePushDown, ModeFull}
	randomOpts := func(r *rand.Rand) Options {
		opts := DefaultOptions()
		opts.Mode, opts.PoolPages, opts.NoHashJoin = modes[r.Intn(2)], 4+r.Intn(8), r.Intn(2) == 0
		// A few pages hold a whole micro-database, so page IO alone ties every
		// shape; a per-tuple price lets the ones that shrink their input win
		// often enough to be retained.
		opts.CPUWeight = 0.01
		return opts
	}
	// seen guards the property against going vacuous: the shapes it is about
	// must turn up among the alternatives.
	seen := map[string]bool{}
	check := func(t *testing.T, e *env, q *qblock.Query, r *rand.Rand) {
		for _, a := range checkAlternatives(t, e.store, q, randomOpts(r), asWritten(t, e.store, q)) {
			seen[a.Label] = true
		}
	}
	requireSeen := func(t *testing.T, labels ...string) {
		for _, l := range labels {
			if !seen[l] {
				t.Errorf("no alternative labelled %q in any trial", l)
			}
		}
	}
	t.Run("example1", func(t *testing.T) {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(100 + seed))
			e := newEnv(t, 200+seed, 100+r.Intn(400), 3+r.Intn(12))
			q := example1Query(e, int64(20+r.Intn(40)))
			agg := &q.Views[0].Block.Aggs[0]
			if agg.Kind = aggKinds[r.Intn(len(aggKinds))]; agg.Kind == expr.AggCountStar {
				agg.Arg = nil
			}
			switch r.Intn(3) {
			case 0: // no predicate over the aggregate: nothing deferred
				q.Top.Conjs = slices.Delete(q.Top.Conjs, 1, 2)
			case 1:
				q.Top.Conjs[1] = expr.NewCmp(cmpOps[r.Intn(len(cmpOps))], expr.Col("e1", "sal"), expr.Col("b", "asal"))
			}
			if r.Intn(2) == 0 {
				q.Top.Outputs = append(q.Top.Outputs, lplan.NamedExpr{E: expr.Col("b", "asal"), As: schema.ColID{Name: "asal"}})
			}
			if r.Intn(2) == 0 {
				joinDeptInView(e, q)
			}
			check(t, e, q, r)
		}
		requireSeen(t, "b:{}", "b:{e1}", "b:{d}", "b:{d,e1}")
	})
	t.Run("example2", func(t *testing.T) {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(300 + seed))
			e := newEnv(t, 400+seed, 100+r.Intn(300), 3+r.Intn(10))
			q := example2Query(e, float64(200000+r.Intn(800000)))
			q.Top.Aggs[0].Kind = aggKinds[r.Intn(len(aggKinds)-1)] // all but COUNT(*), which follows
			if r.Intn(2) == 0 {
				q.Top.Aggs = append(q.Top.Aggs, expr.Agg{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "v", Name: "c"}})
			}
			if r.Intn(2) == 0 {
				q.Top.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "asal"), expr.IntLit(int64(1000+r.Intn(1500))))}
			}
			if r.Intn(2) == 0 { // grouping spans the join: only coalescing can apply
				q.Top.GroupCols = append(q.Top.GroupCols, schema.ColID{Rel: "d", Name: "budget"})
			}
			check(t, e, q, r)
		}
		requireSeen(t, "group-by last", "eager", "coalescing")
	})
}

// joinDeptInView turns Example 1 into the paper's Figure 4: dept joins inside
// the view on the grouping column, so the view's V′ is {e2} and dept may join
// before or after the group-by.
func joinDeptInView(e *env, q *qblock.Query) {
	b := q.Views[0].Block
	b.Rels = append(b.Rels, &qblock.Rel{Alias: "d", Table: e.dept})
	b.Conjs = append(b.Conjs, expr.NewCmp(expr.EQ, expr.Col("e2", "dno"), expr.Col("d", "dno")))
}

// TestAlternativesFigure4 pins the four executions of Section 5.3 by their
// W sets — push-down, traditional, pull-up, and the composition of a push and
// a pull no binary rewrite reaches — and that all four agree.
func TestAlternativesFigure4(t *testing.T) {
	e := newEnv(t, 19, 3000, 200)
	q := example1Query(e, 22)
	joinDeptInView(e, q)
	alts := checkAlternatives(t, e.store, q, smallPool(ModeFull), asWritten(t, e.store, q))
	want := []string{"b:{}", "b:{d}", "b:{d,e1}", "b:{e1}"}
	if got := labelsOf(alts); !slices.Equal(got, want) {
		t.Fatalf("W sets = %v, want %v", got, want)
	}
	// Push and pull composed: e1 is inside Φ, dept joins above it.
	phi := phiOf(t, alts, "b:{e1}", "b")
	if rels := lplan.BaseRels(phi); !rels["e1"] || rels["d"] {
		t.Fatalf("b:{e1}: Φ covers %v, want e1 and e2 without d\n%s", rels, lplan.Format(phi))
	}
}

// TestPhiAbsorbsDeferredPredicate: Definition 1 on Example 1. The predicate
// over the view's aggregate moves into Φ's Having (item 4) and the pulled
// relation's key joins the grouping columns (item 2).
func TestPhiAbsorbsDeferredPredicate(t *testing.T) {
	e := newEnv(t, 1, 800, 12)
	q := example1Query(e, 22)
	alts := checkAlternatives(t, e.store, q, smallPool(ModeFull), asWritten(t, e.store, q))
	phi := phiOf(t, alts, "b:{e1}", "b")
	if len(phi.Having) != 1 || !strings.Contains(phi.Having[0].String(), "asal") {
		t.Fatalf("Φ Having = %v, want the deferred comparison with b.asal", phi.Having)
	}
	if !slices.Contains(phi.GroupCols, schema.ColID{Rel: "e1", Name: "eno"}) {
		t.Fatalf("Φ grouping columns %v lack the pulled relation's key", phi.GroupCols)
	}
	// As written, the comparison is a join predicate and the view has no Having.
	if g := phiOf(t, alts, "b:{}", "b"); len(g.Having) != 0 {
		t.Fatalf("unpulled view acquired a Having: %v", g.Having)
	}
}

// fkQuery joins a per-department view of emp with pulled (dept or a keyless
// stand-in) on the department number.
func fkQuery(e *env, pulled *catalog.Table, out string) *qblock.Query {
	view := &qblock.AggView{
		Alias: "v",
		Block: &qblock.Block{
			Rels:      []*qblock.Rel{{Alias: "e2", Table: e.emp}},
			GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("e2", "sal"),
				Out: schema.ColID{Rel: "v", Name: "tot"}}},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "v", Name: "dno"}},
				{E: expr.Col("v", "tot"), As: schema.ColID{Rel: "v", Name: "tot"}},
			},
		},
	}
	top := &qblock.Block{
		Rels:  []*qblock.Rel{{Alias: "d", Table: pulled}},
		Conjs: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("v", "dno"), expr.Col("d", "dno"))},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("d", out), As: schema.ColID{Name: out}},
			{E: expr.Col("v", "tot"), As: schema.ColID{Name: "tot"}},
		},
	}
	return &qblock.Query{Views: []*qblock.AggView{view}, Top: top}
}

// TestPhiForeignKeyJoinSkipsKey: the equi-join applied inside Φ binds the
// pulled relation's key, so the key is not added to the grouping columns
// (keyBound) — only what the query needs above Φ is.
func TestPhiForeignKeyJoinSkipsKey(t *testing.T) {
	e := newEnv(t, 3, 400, 8)
	q := fkQuery(e, e.dept, "budget")
	alts := checkAlternatives(t, e.store, q, smallPool(ModeFull), asWritten(t, e.store, q))
	// d.dno is grouped once, because the query's own predicate names it;
	// nothing is added for d's key.
	phi := phiOf(t, alts, "v:{d}", "v")
	want := []schema.ColID{{Rel: "e2", Name: "dno"}, {Rel: "d", Name: "dno"}, {Rel: "d", Name: "budget"}}
	if !slices.Equal(phi.GroupCols, want) {
		t.Fatalf("Φ grouping columns = %v, want %v", phi.GroupCols, want)
	}

	// The rule itself: e2 is bit 0, d bit 1, e1 bit 2.
	conjs := []dpConj{
		{e: expr.NewCmp(expr.EQ, expr.Col("e2", "dno"), expr.Col("d", "dno")), mask: 0b011},
		{e: expr.NewCmp(expr.LT, expr.Col("e1", "eno"), expr.Col("e2", "eno")), mask: 0b101},
	}
	dKey, e1Key := schema.Key{{Rel: "d", Name: "dno"}}, schema.Key{{Rel: "e1", Name: "eno"}}
	if !keyBound(dKey, conjs, 0b011) {
		t.Errorf("equi-join on d.dno does not bind d's key")
	}
	if keyBound(dKey, conjs, 0b110) {
		t.Errorf("d's key bound by a conjunct not applied within the set")
	}
	if keyBound(e1Key, conjs, 0b111) {
		t.Errorf("a non-equality bound e1's key")
	}
}

// TestPhiKeylessRelationUsesTID: a pulled relation without a declared key is
// scanned with its tuple id, and the tuple id stands in for the key.
func TestPhiKeylessRelationUsesTID(t *testing.T) {
	e := newEnv(t, 4, 300, 6)
	q := fkQuery(e, addNoKey(t, e, 4, 12, 6), "tag")
	alts := checkAlternatives(t, e.store, q, smallPool(ModeFull), asWritten(t, e.store, q))
	phi := phiOf(t, alts, "v:{d}", "v")
	if !slices.Contains(phi.GroupCols, schema.ColID{Rel: "d", Name: lplan.TIDColumn}) {
		t.Fatalf("Φ grouping columns %v lack the keyless relation's tuple id", phi.GroupCols)
	}
}

// TestAlternativesUserDefinedStdDev: a user-defined aggregate registered with
// a decomposition is deferred by pull-up and split by coalescing exactly like
// a built-in one.
func TestAlternativesUserDefinedStdDev(t *testing.T) {
	stddev := func(arg expr.Expr, out schema.ColID) []expr.Agg {
		return []expr.Agg{{Kind: expr.AggUser, User: "stddev", Arg: arg, Out: out}}
	}
	t.Run("pull-up", func(t *testing.T) {
		e := newEnv(t, 61, 500, 10)
		q := example1Query(e, 30)
		q.Views[0].Block.Aggs = stddev(expr.Col("e2", "sal"), schema.ColID{Rel: "b", Name: "asal"})
		alts := checkAlternatives(t, e.store, q, smallPool(ModeFull), asWritten(t, e.store, q))
		if phi := phiOf(t, alts, "b:{e1}", "b"); phi.Aggs[0].User != "stddev" || len(phi.Having) != 1 {
			t.Fatalf("Φ lost the aggregate or its deferred predicate:\n%s", lplan.Format(phi))
		}
	})
	t.Run("coalescing", func(t *testing.T) {
		e := newEnv(t, 60, 3000, 150)
		q := example2Query(e, 900000)
		q.Top.GroupCols = append(q.Top.GroupCols, schema.ColID{Rel: "d", Name: "budget"})
		// Three partials (sum, sum of squares, count) replace eno, sal and age:
		// the pre-aggregate is no wider, so the greedy rule may keep it.
		q.Top.Aggs = stddev(expr.NewArith(expr.Add, expr.Col("e", "sal"), expr.Col("e", "age")),
			schema.ColID{Rel: "v", Name: "asal"})
		alts := checkAlternatives(t, e.store, q, smallPool(ModePushDown), asWritten(t, e.store, q))
		if got := labelsOf(alts); !slices.Contains(got, "coalescing") {
			t.Fatalf("placements = %v, want a coalescing one", got)
		}
	})
}

// TestAlternativesPlacements: which of Section 4's push-downs the search may
// apply to a single-block query, and that whatever it retains is equal to the
// group-by-last plan. minInvariantMask / dpRemovable are the invariant rule,
// groupSpec.decomposable and partialSpecOf the coalescing rule.
func TestAlternativesPlacements(t *testing.T) {
	having := []expr.Expr{expr.NewCmp(expr.GT, expr.Col("v", "asal"), expr.IntLit(1500))}
	outputs := []lplan.NamedExpr{
		{E: expr.NewArith(expr.Mul, expr.Col("v", "asal"), expr.IntLit(2)), As: schema.ColID{Name: "dbl"}},
		{E: expr.Col("e", "dno"), As: schema.ColID{Name: "dno"}},
	}
	spanning := func(q *qblock.Query) { // grouping spans the join: d is pinned
		q.Top.GroupCols = append(q.Top.GroupCols, schema.ColID{Rel: "d", Name: "budget"})
	}
	cases := []struct {
		name         string
		edit         func(e *env, q *qblock.Query)
		want, refuse string
	}{
		{"invariant", func(*env, *qblock.Query) {}, "eager", ""},
		{"invariant-having-outputs", func(_ *env, q *qblock.Query) {
			q.Top.Having, q.Top.Outputs = having, outputs
		}, "eager", ""},
		{"coalescing", func(_ *env, q *qblock.Query) { spanning(q) }, "coalescing", "eager"},
		{"coalescing-having-outputs", func(_ *env, q *qblock.Query) {
			spanning(q)
			q.Top.Having, q.Top.Outputs = having, outputs
		}, "coalescing", "eager"},
		{"coalescing-many-to-many", func(e *env, q *qblock.Query) {
			// nokey repeats dno values: invariant grouping would double-count,
			// coalescing reproduces the multiplicities.
			q.Top.Rels[1] = &qblock.Rel{Alias: "d", Table: addNoKey(t, e, 10, 300, 150)}
			q.Top.Conjs = q.Top.Conjs[:1]
			q.Top.GroupCols = append(q.Top.GroupCols, schema.ColID{Rel: "d", Name: "tag"})
		}, "coalescing", "eager"},
		{"non-key-join-not-eager", func(e *env, q *qblock.Query) {
			q.Top.Rels[1] = &qblock.Rel{Alias: "d", Table: addNoKey(t, e, 8, 300, 150)}
			q.Top.Conjs = q.Top.Conjs[:1]
		}, "", "eager"},
		{"non-grouping-join-column-not-eager", func(_ *env, q *qblock.Query) {
			// Joined on e.eno, grouped by e.dno: a group's rows differ under the join.
			q.Top.Conjs[0] = expr.NewCmp(expr.EQ, expr.Col("e", "eno"), expr.Col("d", "dno"))
		}, "", "eager"},
		{"median-not-coalesced", func(_ *env, q *qblock.Query) {
			spanning(q)
			q.Top.Aggs[0].Kind = expr.AggMedian
		}, "", "coalescing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 6, 3000, 150)
			q := example2Query(e, 900000)
			c.edit(e, q)
			alts := checkAlternatives(t, e.store, q, smallPool(ModePushDown), asWritten(t, e.store, q))
			got := labelsOf(alts)
			if !slices.Contains(got, "group-by last") {
				t.Fatalf("placements = %v, want group-by last among them", got)
			}
			if c.want != "" && !slices.Contains(got, c.want) {
				t.Fatalf("placements = %v, want %q among them", got, c.want)
			}
			if c.refuse != "" && slices.Contains(got, c.refuse) {
				t.Fatalf("placements = %v: %q is unsound here", got, c.refuse)
			}
		})
	}
}

// TestAlternativesOuterJoinRefusal: across an outer join nothing moves. The
// COUNT-bug query has one alternative in every mode, its group-by above the
// whole chain, equal to the canonical plan.
func TestAlternativesOuterJoinRefusal(t *testing.T) {
	e := newOuterEnv(t, 300, 20, 120)
	q := outerChainQuery(e, true, true)
	want, err := exec.Naive(e.store, canonicalOuterPlan(e, q), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
		alts := checkAlternatives(t, e.store, q, smallPool(mode), want)
		if len(alts) != 1 || alts[0].Label != "outer-join chain" {
			t.Fatalf("[%v] alternatives = %v, want the chain alone", mode, labelsOf(alts))
		}
		g, ok := alts[0].Root.(*lplan.GroupBy)
		if !ok || strings.Count(lplan.Format(g), "GroupBy") != 1 {
			t.Fatalf("[%v] group-by is not last:\n%s", mode, lplan.Format(alts[0].Root))
		}
	}
}
