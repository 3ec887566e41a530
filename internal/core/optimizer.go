package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"aggview/internal/cost"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
)

// Plan is the optimizer's result.
type Plan struct {
	Root  lplan.Node
	Cost  float64
	Info  *cost.Info
	Stats SearchStats
	// ViewRewrite names the materialized view whose backing table the plan
	// reads, when a view-backed candidate beat every base-table plan on
	// cost ("" = the base plan won or no candidate applied).
	ViewRewrite string
}

// Explain renders the chosen plan tree.
func (p *Plan) Explain() string { return lplan.Format(p.Root) }

// Alternative is one complete plan the search finalized: the query with each
// aggregate view pulled up through the relations its W names (Φ(V′, W),
// Section 5.3) and the top block's group-by placed as the label says.
type Alternative struct {
	// Label names the shape, not the plan: the W combination as the search
	// trace prints it ("b:{d,e1}", one per view) and, for a grouped top
	// block, where its group-by sits — "group-by last", "coalescing" (a
	// partial pre-aggregate below a join, Section 4.2) or "eager" (the
	// group-by itself below a join, Section 4.1). Plans differing only in
	// join order or method share a label; an outer-join chain has one shape.
	Label string
	Root  lplan.Node
	Cost  float64
}

// Alternatives returns every complete plan Optimize's search finalizes for
// the query, in search order. Optimize's choice is the cheapest of them, the
// first found winning ties (before materialized-view candidates compete);
// opts.ViewPlans is not consulted.
func Alternatives(q *qblock.Query, opts Options) ([]Alternative, error) {
	o, err := newOptimizer(q, opts)
	if err != nil {
		return nil, err
	}
	defer o.mem.release()
	var alts []Alternative
	o.each = func(a Alternative) { alts = append(alts, a) }
	if _, _, err := o.run(); err != nil {
		return nil, err
	}
	return alts, nil
}

// newOptimizer validates the query and sets up one search. The caller
// releases o.mem when done with everything the search returned.
func newOptimizer(q *qblock.Query, opts Options) (*optimizer, error) {
	if opts.Mode == ModeDefault {
		opts.Mode = ModeFull
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	mem := memoPool.Get().(*memo)
	return &optimizer{
		q:     q,
		opts:  opts,
		model: cost.NewModelIn(mem.stats, opts.PoolPages, opts.CPUWeight),
		mem:   mem,
		stats: &SearchStats{},
	}, nil
}

// Optimize chooses an execution plan for a canonical-form query.
func Optimize(q *qblock.Query, opts Options) (*Plan, error) {
	o, err := newOptimizer(q, opts)
	if err != nil {
		return nil, err
	}
	// The search's memory — memo entries, column statistics — is recycled
	// on return; what the caller gets is an lplan tree and detached numbers.
	defer o.mem.release()
	root, info, err := o.run()
	if err != nil {
		return nil, err
	}
	// Materialized-view candidates compete against the best base-table
	// plan as whole-query alternative access paths (cost-based rewrite
	// folded into the same search, not a pre-pass that hides the base
	// plan). A candidate wins only when strictly cheaper.
	rewrite := ""
	for _, vp := range opts.ViewPlans {
		if vp.Root == nil {
			continue
		}
		if err := tickPlan(o.stats, opts); err != nil {
			return nil, err
		}
		vinfo, verr := o.model.Info(vp.Root)
		if verr != nil {
			return nil, fmt.Errorf("optimize: costing view plan %s: %w", vp.Name, verr)
		}
		if opts.Trace != nil {
			verdict := "kept base plan"
			if vinfo.Cost < info.Cost {
				verdict = "replaces base plan"
			}
			opts.Trace.Event("view-rewrite", 0, "view %s cost %.1f vs base %.1f: %s",
				vp.Name, vinfo.Cost, info.Cost, verdict)
		}
		if vinfo.Cost < info.Cost {
			root, info, rewrite = vp.Root, vinfo, vp.Name
		}
	}
	if err := lplan.Validate(root); err != nil {
		return nil, fmt.Errorf("optimize: produced an illegal plan: %w\n%s", err, lplan.Format(root))
	}
	detached := *info
	detached.Rel = info.Rel.Clone()
	return &Plan{Root: root, Cost: info.Cost, Info: &detached, Stats: *o.stats, ViewRewrite: rewrite}, nil
}

// viewCtx is the per-view decomposition state.
type viewCtx struct {
	view    *qblock.AggView
	vPrime  []*qblock.Rel // the minimal invariant set V′
	removed []*qblock.Rel // V − V′, moved into B′
	// innerConjs are the view's conjuncts entirely within V′.
	innerConjs []expr.Expr
	// outToInner substitutes view output columns by their defining
	// expressions (inner columns or aggregate output references).
	outToInner map[schema.ColID]expr.Expr
	// innerToOut maps inner grouping columns to bare view output columns.
	innerToOut map[schema.ColID]schema.ColID
	// aggOuts is the set of the view's aggregate output columns (inner ids).
	aggOuts map[schema.ColID]bool
	// viewOutAggs is the set of view *output* columns defined by aggregates.
	viewOutAggs map[schema.ColID]bool
}

// poolConj is a top-pool conjunct in both forms.
type poolConj struct {
	outer expr.Expr // references view output columns (phase-2 form)
	// inner is the conjunct with each view's output columns substituted
	// by their definitions (phase-1 form); nil when the conjunct touches
	// more than one view's aggregates and can never sink into a Φ.
	inner expr.Expr
	// aggViews lists the views whose aggregate outputs the conjunct
	// references (deferred predicates, Definition 1 item 4).
	aggViews map[string]bool
	// aliases are the base-relation aliases the outer form touches
	// (view aliases excluded).
	baseAliases map[string]bool
	// views are all view aliases the outer form touches.
	views map[string]bool
}

type optimizer struct {
	q     *qblock.Query
	opts  Options
	model *cost.Model
	mem   *memo
	stats *SearchStats

	views  []*viewCtx
	pool   []*poolConj                // multi-relation conjuncts of the top pool
	local  map[string][]expr.Expr     // single-relation filters by alias
	bRels  []*qblock.Rel              // B′: top base relations plus views' removed relations
	needed map[string]map[string]bool // per-alias columns any plan may reference

	// each, set by Alternatives only, is shown every complete plan the
	// search finalizes; Optimize keeps just the cheapest.
	each func(Alternative)
}

func (o *optimizer) run() (lplan.Node, *cost.Info, error) {
	if hasOuterChain(o.q) {
		root, info, err := o.optimizeOuterChain()
		if err == nil && o.each != nil {
			o.each(Alternative{Label: "outer-join chain", Root: root, Cost: info.Cost})
		}
		return root, info, err
	}
	if err := o.decompose(); err != nil {
		return nil, nil, err
	}
	o.computeNeeded()
	return o.optimizeWithViews()
}

// computeNeeded collects, per relation alias, every column the query can
// possibly reference — pool conjuncts (both forms), local filters, view
// internals, the top group-by and outputs, and primary keys (pull-up may
// add them to grouping columns). Scans project down to this set, so the
// paper's width trade-offs reflect only the columns a plan truly carries.
func (o *optimizer) computeNeeded() {
	need := map[string]map[string]bool{}
	addCol := func(c schema.ColID) {
		if need[c.Rel] == nil {
			need[c.Rel] = map[string]bool{}
		}
		need[c.Rel][c.Name] = true
	}
	addExpr := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			addCol(c)
		}
	}
	for _, pc := range o.pool {
		addExpr(pc.outer)
		if pc.inner != nil {
			addExpr(pc.inner)
		}
	}
	for _, fs := range o.local {
		for _, f := range fs {
			addExpr(f)
		}
	}
	for _, gc := range o.q.Top.GroupCols {
		addCol(gc)
	}
	for _, a := range o.q.Top.Aggs {
		if a.Arg != nil {
			addExpr(a.Arg)
		}
	}
	for _, h := range o.q.Top.Having {
		addExpr(h)
	}
	for _, ne := range o.q.Top.Outputs {
		addExpr(ne.E)
	}
	for _, vc := range o.views {
		for _, c := range vc.innerConjs {
			addExpr(c)
		}
		for _, gc := range vc.view.Block.GroupCols {
			addCol(gc)
		}
		for _, a := range vc.view.Block.Aggs {
			if a.Arg != nil {
				addExpr(a.Arg)
			}
		}
		for _, h := range vc.view.Block.Having {
			addExpr(h)
		}
		for _, ne := range vc.view.Block.Outputs {
			addExpr(ne.E)
		}
	}
	o.needed = need
}

// prunedScan builds a scan restricted to the needed columns of its alias
// (plus the primary key, or the tuple id when keyless).
func (o *optimizer) prunedScan(r *qblock.Rel, filters []expr.Expr) *lplan.Scan {
	scan := &lplan.Scan{Alias: r.Alias, Table: r.Table, Filter: filters}
	if len(r.Table.PrimaryKey) == 0 {
		scan.WithTID = true
	}
	needed := o.needed[r.Alias]
	if needed == nil {
		needed = map[string]bool{}
	}
	keep := map[string]bool{}
	for name := range needed {
		keep[name] = true
	}
	for _, k := range r.Table.PrimaryKey {
		keep[k] = true
	}
	if len(keep) >= len(r.Table.Schema) && !scan.WithTID {
		return scan // nothing to prune
	}
	var proj []schema.ColID
	for _, c := range r.Table.Schema {
		if keep[c.ID.Name] {
			proj = append(proj, schema.ColID{Rel: r.Alias, Name: c.ID.Name})
		}
	}
	if scan.WithTID {
		proj = append(proj, schema.ColID{Rel: r.Alias, Name: lplan.TIDColumn})
	}
	if len(proj) == 0 {
		// A relation used purely for its existence (no columns referenced)
		// still needs one column to be well-formed.
		proj = append(proj, schema.ColID{Rel: r.Alias, Name: r.Table.Schema[0].ID.Name})
	}
	scan.Proj = proj
	return scan
}

// decompose computes V′ per view, hoists movable relations and their
// conjuncts into the top pool, and classifies every pool conjunct.
func (o *optimizer) decompose() error {
	o.local = map[string][]expr.Expr{}
	o.bRels = append([]*qblock.Rel{}, o.q.Top.Rels...)

	var poolExprs []expr.Expr
	for _, c := range o.q.Top.Conjs {
		poolExprs = append(poolExprs, c)
	}

	for _, v := range o.q.Views {
		vc, err := o.decomposeView(v)
		if err != nil {
			return err
		}
		o.views = append(o.views, vc)
		o.bRels = append(o.bRels, vc.removed...)
		// Hoisted conjuncts (touching removed relations) enter the pool in
		// outer form: V′-side inner grouping columns renamed to outputs.
		removedSet := map[string]bool{}
		for _, r := range vc.removed {
			removedSet[r.Alias] = true
		}
		for _, c := range v.Block.Conjs {
			if isInnerConj(c, vc, removedSet) {
				continue // stays in the view core
			}
			outer, err := hoistConj(c, vc, removedSet)
			if err != nil {
				return err
			}
			poolExprs = append(poolExprs, outer)
		}
	}

	// Split local filters from multi-relation conjuncts and build both
	// forms of each pool conjunct.
	viewByAlias := map[string]*viewCtx{}
	for _, vc := range o.views {
		viewByAlias[vc.view.Alias] = vc
	}
	for _, c := range poolExprs {
		rels := expr.Rels(c)
		if len(rels) == 1 {
			if _, isView := viewByAlias[rels[0]]; !isView {
				o.local[rels[0]] = append(o.local[rels[0]], c)
				continue
			}
		}
		pc := &poolConj{
			outer:       c,
			aggViews:    map[string]bool{},
			baseAliases: map[string]bool{},
			views:       map[string]bool{},
		}
		inner := c
		for _, col := range expr.Columns(c) {
			if vc, ok := viewByAlias[col.Rel]; ok {
				pc.views[col.Rel] = true
				if vc.viewOutAggs[col] {
					pc.aggViews[col.Rel] = true
				}
			} else {
				pc.baseAliases[col.Rel] = true
			}
		}
		if len(pc.aggViews) <= 1 {
			sub := map[schema.ColID]expr.Expr{}
			for alias := range pc.views {
				for out, def := range viewByAlias[alias].outToInner {
					sub[out] = def
				}
			}
			inner = expr.Substitute(c, sub)
			pc.inner = inner
		}
		o.pool = append(o.pool, pc)
	}
	return nil
}

// isInnerConj reports whether a view conjunct stays inside V′.
func isInnerConj(c expr.Expr, vc *viewCtx, removed map[string]bool) bool {
	for _, rel := range expr.Rels(c) {
		if removed[rel] {
			return false
		}
	}
	return true
}

// hoistConj renames a view conjunct's V′-side columns to view outputs so it
// can live in the top pool. The minimal-invariant-set computation
// guarantees those columns are grouping columns; decomposeView guarantees
// they have bare output names.
func hoistConj(c expr.Expr, vc *viewCtx, removed map[string]bool) (expr.Expr, error) {
	sub := map[schema.ColID]expr.Expr{}
	for _, col := range expr.Columns(c) {
		if removed[col.Rel] {
			continue
		}
		out, ok := vc.innerToOut[col]
		if !ok {
			return nil, fmt.Errorf("optimize: cannot hoist %s: column %s has no view output", c, col)
		}
		sub[col] = expr.ColOf(out)
	}
	return expr.Substitute(c, sub), nil
}

// decomposeView computes V′ and the naming maps for one view. When a
// movable relation's hoisted conjuncts cannot be expressed over the view's
// outputs, the whole view stays intact (V′ = all relations) — a sound,
// conservative fallback.
func (o *optimizer) decomposeView(v *qblock.AggView) (*viewCtx, error) {
	vc := &viewCtx{
		view:        v,
		outToInner:  map[schema.ColID]expr.Expr{},
		innerToOut:  map[schema.ColID]schema.ColID{},
		aggOuts:     map[schema.ColID]bool{},
		viewOutAggs: map[schema.ColID]bool{},
	}
	for _, a := range v.Block.Aggs {
		vc.aggOuts[a.Out] = true
	}
	for _, ne := range v.Block.Outputs {
		vc.outToInner[ne.As] = ne.E
		refsAgg := false
		for _, col := range expr.Columns(ne.E) {
			if vc.aggOuts[col] {
				refsAgg = true
			}
		}
		if refsAgg {
			vc.viewOutAggs[ne.As] = true
		} else if cr, ok := ne.E.(*expr.ColRef); ok {
			vc.innerToOut[cr.ID] = ne.As
		}
	}

	keep := func(all bool) {
		vc.vPrime = v.Block.Rels
		vc.removed = nil
		vc.innerConjs = v.Block.Conjs
	}

	if o.opts.Mode == ModeTraditional {
		keep(true)
		return vc, nil
	}

	inSet := minimalInvariantAliases(v.Block)
	var removedSet = map[string]bool{}
	for _, r := range v.Block.Rels {
		if inSet[r.Alias] {
			vc.vPrime = append(vc.vPrime, r)
		} else {
			vc.removed = append(vc.removed, r)
			removedSet[r.Alias] = true
		}
	}
	// Verify hoistability of every crossing conjunct.
	for _, c := range v.Block.Conjs {
		if isInnerConj(c, vc, removedSet) {
			vc.innerConjs = append(vc.innerConjs, c)
			continue
		}
		if _, err := hoistConj(c, vc, removedSet); err != nil {
			// Fall back: keep the view whole.
			keep(true)
			return vc, nil
		}
	}
	return vc, nil
}

// topGroupSpec converts the top block's group-by into a DP group spec
// (minInvariant and argsMask are filled in by newBlockDP).
func (o *optimizer) topGroupSpec() *rawGroup {
	if !o.q.Top.HasGroupBy() {
		return nil
	}
	return &rawGroup{
		cols:   o.q.Top.GroupCols,
		aggs:   o.q.Top.Aggs,
		having: o.q.Top.Having,
	}
}

// rawGroup is a group spec before DP-level mask computation.
type rawGroup struct {
	cols   []schema.ColID
	aggs   []expr.Agg
	having []expr.Expr
}

// newBlockDP assembles a block DP from base relations and prebuilt
// subplans. Each scan carries its relation's local filters, o.local's and
// the caller's (filters, nil for none); conjs must be multi-relation. g is
// nil for a block without a (pending) group-by, such as phase one's V′ ∪ B′.
func (o *optimizer) newBlockDP(rels []*qblock.Rel, prebuilt []prebuiltRel, filters map[string][]expr.Expr, conjs []expr.Expr, g *rawGroup, outputs []lplan.NamedExpr) (*blockDP, error) {
	dp := &blockDP{model: o.model, mem: o.mem, opts: o.opts, stats: o.stats, outputs: outputs}
	bit := 0
	for _, r := range rels {
		local := o.local[r.Alias]
		if more := filters[r.Alias]; len(more) > 0 {
			local = slices.Concat(local, more)
		}
		dp.rels = append(dp.rels, dpRel{alias: r.Alias, node: o.prunedScan(r, local), mask: 1 << bit})
		bit++
	}
	for _, p := range prebuilt {
		dp.rels = append(dp.rels, dpRel{alias: p.alias, node: p.node, mask: 1 << bit})
		bit++
	}
	aliases := aliasMasks(dp.rels)
	for _, c := range conjs {
		m, err := maskOfExpr(c, aliases)
		if err != nil {
			return nil, err
		}
		dp.conjs = append(dp.conjs, newConj(c, m, o.model.Cols()))
	}
	dp.conjs = addDerivedEqualities(dp.conjs, aliases, o.model.Cols())
	if g != nil {
		spec := &groupSpec{cols: g.cols, aggs: g.aggs, having: g.having, decomposable: true}
		for _, a := range g.aggs {
			if !a.Decomposable() {
				spec.decomposable = false
			}
			if a.Arg != nil {
				m, err := maskOfExpr(a.Arg, aliases)
				if err != nil {
					return nil, err
				}
				spec.argsMask |= m
			}
		}
		spec.minInvariant = minInvariantMask(dp.rels, dp.conjs, spec)
		dp.group = spec
	}
	return dp, nil
}

// prebuiltRel is an already-optimized subplan entering a DP as a relation.
type prebuiltRel struct {
	alias string
	node  lplan.Node
}

// optimizeWithViews runs the two-phase algorithm of Sections 5.3-5.4. A
// query without aggregate views has one (empty) combination: phase two over
// the top block is the whole search.
func (o *optimizer) optimizeWithViews() (lplan.Node, *cost.Info, error) {
	// Phase 1: one shared DP per view over V′ ∪ B′, then Φ(V′, W) per
	// candidate W.
	type viewPlans struct {
		vc         *viewCtx
		candidates []wCandidate
	}
	var all []*viewPlans
	for _, vc := range o.views {
		cands, err := o.phaseOne(vc)
		if err != nil {
			return nil, nil, err
		}
		if len(cands) == 0 {
			return nil, nil, fmt.Errorf("optimize: no pull-up candidates for view %q", vc.view.Alias)
		}
		all = append(all, &viewPlans{vc: vc, candidates: cands})
	}

	// Phase 2: enumerate consistent (pairwise disjoint) combinations.
	var bestNode lplan.Node
	var bestInfo *cost.Info
	bestCost := math.Inf(1)

	var rec func(i int, used map[string]bool, chosen []wCandidate) error
	rec = func(i int, used map[string]bool, chosen []wCandidate) error {
		if i == len(all) {
			node, info, err := o.phaseTwo(chosen)
			if err != nil {
				return err
			}
			// Without views there is one, empty combination: nothing to report.
			if o.opts.Trace != nil && len(chosen) > 0 {
				verdict := "kept"
				if info.Cost >= bestCost {
					verdict = fmt.Sprintf("rejected (%.1f >= best %.1f)", info.Cost, bestCost)
				}
				o.opts.Trace.Event("phase2", 0, "combination [%s]: cost %.1f, %s",
					wLabel(chosen), info.Cost, verdict)
			}
			if info.Cost < bestCost {
				bestNode, bestInfo, bestCost = node, info, info.Cost
			}
			return nil
		}
		for _, c := range all[i].candidates {
			conflict := false
			for a := range c.wAliases {
				if used[a] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for a := range c.wAliases {
				used[a] = true
			}
			if err := rec(i+1, used, append(chosen, c)); err != nil {
				return err
			}
			for a := range c.wAliases {
				delete(used, a)
			}
		}
		return nil
	}
	if err := rec(0, map[string]bool{}, nil); err != nil {
		return nil, nil, err
	}
	if bestNode == nil {
		return nil, nil, fmt.Errorf("optimize: no consistent pull-up combination found")
	}
	return bestNode, bestInfo, nil
}

// wCandidate is one Φ(V′, W): the pulled-up view plan plus bookkeeping for
// phase 2.
type wCandidate struct {
	vc       *viewCtx
	wAliases map[string]bool // B′ relations consumed by this Φ
	phi      lplan.Node
	// consumed marks pool conjuncts applied inside the Φ.
	consumed map[*poolConj]bool
}

// phaseOne optimizes the extended view: one DP over V′ ∪ B′ without the
// group-by, then a pulled-up group-by per candidate W (Section 5.3).
func (o *optimizer) phaseOne(vc *viewCtx) ([]wCandidate, error) {
	// Conjuncts usable inside Φ: the view's inner conjuncts plus pool
	// conjuncts in inner form that touch at most this view's aggregates
	// and no other view. One over a single relation (a view-local filter, or
	// a pool filter over the view's grouping outputs rewritten to inner
	// columns) goes into that relation's scan.
	filters := map[string][]expr.Expr{}
	var dpConjs []expr.Expr
	place := func(c expr.Expr) {
		if on := expr.Rels(c); len(on) == 1 {
			filters[on[0]] = append(filters[on[0]], c)
		} else {
			dpConjs = append(dpConjs, c)
		}
	}
	for _, c := range vc.innerConjs {
		place(c)
	}
	usable := map[*poolConj]bool{}
	var deferred []*poolConj // conjuncts over this view's aggregate outputs
	for _, pc := range o.pool {
		if pc.inner == nil {
			continue
		}
		touchesOther := false
		for vAlias := range pc.views {
			if vAlias != vc.view.Alias {
				touchesOther = true
			}
		}
		if touchesOther {
			continue
		}
		if pc.aggViews[vc.view.Alias] {
			deferred = append(deferred, pc)
			continue
		}
		usable[pc] = true
		place(pc.inner)
	}

	// The shared phase-1 DP over V′ ∪ B′: no group-by, no outputs.
	dp, err := o.newBlockDP(slices.Concat(vc.vPrime, o.bRels), nil, filters, dpConjs, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := dp.solve(); err != nil {
		return nil, err
	}

	// Candidate W sets.
	wSets := o.candidateWs(vc, dp)
	var out []wCandidate
	for _, w := range wSets {
		o.stats.PullUpCandidates++
		cand, err := o.buildPhi(vc, dp, w, deferred, usable)
		if err != nil {
			return nil, err
		}
		if cand == nil {
			o.opts.Trace.Event("pull-up", 0, "view %s, W={%s}: rejected (no connected plan for V' ∪ W)",
				vc.view.Alias, strings.TrimSuffix(setKey(w), ","))
			continue
		}
		if o.opts.Trace != nil {
			info, err := o.model.Info(cand.phi)
			if err == nil {
				o.opts.Trace.Event("pull-up", 0, "view %s, W={%s}: Φ cost %.1f",
					vc.view.Alias, strings.TrimSuffix(setKey(w), ","), info.Cost)
			}
		}
		out = append(out, *cand)
	}
	return out, nil
}

// candidateWs enumerates the pull sets W ⊆ B′ for a view under the
// configured restrictions. The set V − V′ (traditional reconstitution) and
// the empty set (maximal push-down) are always included.
func (o *optimizer) candidateWs(vc *viewCtx, dp *blockDP) []map[string]bool {
	removed := map[string]bool{}
	for _, r := range vc.removed {
		removed[r.Alias] = true
	}
	seen := map[string]bool{}
	var out []map[string]bool
	emit := func(w map[string]bool) {
		key := setKey(w)
		if !seen[key] {
			seen[key] = true
			cp := map[string]bool{}
			for a := range w {
				cp[a] = true
			}
			out = append(out, cp)
		}
	}

	emit(map[string]bool{})
	emit(removed)

	if o.opts.Mode == ModeTraditional {
		// Traditional: exactly the original view.
		return []map[string]bool{removed}
	}

	// Push-down spectrum: subsets of the removed relations.
	subsetsOf(vc.removed, func(w map[string]bool) { emit(w) })

	if o.opts.Mode != ModeFull {
		return out
	}

	// Pull-up: grow W with connected B′ relations, counting only
	// relations foreign to the view against the k budget.
	vAliases := map[string]bool{}
	for _, r := range vc.vPrime {
		vAliases[r.Alias] = true
	}
	var grow func(w map[string]bool, pulled int)
	grow = func(w map[string]bool, pulled int) {
		emit(w)
		if o.opts.KLevelPullUp > 0 && pulled >= o.opts.KLevelPullUp {
			return
		}
		for _, r := range o.bRels {
			if w[r.Alias] {
				continue
			}
			if o.opts.RequireSharedPredicate && !connected(r.Alias, vAliases, w, dp) {
				continue
			}
			w[r.Alias] = true
			inc := 1
			if removed[r.Alias] {
				inc = 0
			}
			grow(w, pulled+inc)
			delete(w, r.Alias)
		}
	}
	grow(map[string]bool{}, 0)
	// Also grow starting from the reconstituted view.
	start := map[string]bool{}
	for a := range removed {
		start[a] = true
	}
	grow(start, 0)

	sort.Slice(out, func(i, j int) bool { return setKey(out[i]) < setKey(out[j]) })
	return out
}

func setKey(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + ","
	}
	return s
}

func subsetsOf(rels []*qblock.Rel, emit func(map[string]bool)) {
	n := len(rels)
	if n > 10 {
		return // guard against explosion; ∅ and the full set are emitted elsewhere
	}
	for m := 0; m < 1<<n; m++ {
		w := map[string]bool{}
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				w[rels[i].Alias] = true
			}
		}
		emit(w)
	}
}

// connected reports whether relation alias shares a DP conjunct with the
// view's V′ relations or the current W.
func connected(alias string, vAliases, w map[string]bool, dp *blockDP) bool {
	var aliasMask, groupMask uint64
	for _, r := range dp.rels {
		if r.alias == alias {
			aliasMask = r.mask
		}
		if vAliases[r.alias] || w[r.alias] {
			groupMask |= r.mask
		}
	}
	for _, c := range dp.conjs {
		if c.mask&aliasMask != 0 && c.mask&groupMask != 0 {
			return true
		}
	}
	return false
}

// buildPhi wraps the phase-1 plan for V′ ∪ W in the pulled-up group-by
// (Definition 1 generalized to a set W).
func (o *optimizer) buildPhi(vc *viewCtx, dp *blockDP, w map[string]bool, deferred []*poolConj, usable map[*poolConj]bool) (*wCandidate, error) {
	// Mask of V′ ∪ W.
	var mask uint64
	inPhi := map[string]bool{}
	for _, r := range vc.vPrime {
		inPhi[r.Alias] = true
	}
	for a := range w {
		inPhi[a] = true
	}
	for _, r := range dp.rels {
		if inPhi[r.alias] {
			mask |= r.mask
		}
	}
	cands := dp.best[mask]
	if len(cands) == 0 {
		return nil, nil // disconnected subset never materialized (cross joins pruned)
	}

	// Deferred conjuncts absorbable into this Φ's Having.
	var absorbed []*poolConj
	for _, pc := range deferred {
		okAbsorb := true
		for a := range pc.baseAliases {
			if !inPhi[a] {
				okAbsorb = false
				break
			}
		}
		if okAbsorb {
			absorbed = append(absorbed, pc)
		}
	}

	// Consumed pool conjuncts: usable ones whose relations all sit inside
	// V′ ∪ W, plus the absorbed deferred ones.
	consumed := map[*poolConj]bool{}
	for pc := range usable {
		all := true
		for a := range pc.baseAliases {
			if !inPhi[a] {
				all = false
				break
			}
		}
		for vAlias := range pc.views {
			if vAlias != vc.view.Alias {
				all = false
			}
		}
		if all {
			consumed[pc] = true
		}
	}
	for _, pc := range absorbed {
		consumed[pc] = true
	}

	// Grouping columns: the view's grouping columns, W relations' keys
	// (skipped when the applied equi-joins bind them), W columns needed
	// above, and non-aggregate columns of absorbed deferred conjuncts.
	spec, err := o.phiGroupBy(vc, dp, mask, w, absorbed)
	if err != nil {
		return nil, err
	}

	// Pick the cheapest Φ across retained join orders and agg methods. The
	// group-by is costed over the memo entries; only the winner becomes a
	// tree.
	var bestIn *entry
	var bestTmpl *lplan.GroupBy
	var bestInfo cost.Info
	bestInfo.Cost = math.Inf(1)
	var tmpls [2]*lplan.GroupBy
	for i, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
		tmpls[i] = &lplan.GroupBy{
			GroupCols: spec.groupCols,
			Aggs:      spec.aggs,
			Having:    spec.having,
			Outputs:   spec.outputs,
			Method:    m,
		}
	}
	width := tmpls[0].SchemaOver(dp.schema).AvgWidth()
	for i := range cands {
		c := &cands[i]
		props, groups := o.model.GroupProps(&c.info, tmpls[0], width)
		for _, tmpl := range tmpls {
			info, err := dp.groupOver(&c.info, tmpl, props, groups)
			if err != nil {
				return nil, err
			}
			if err := tickPlan(o.stats, o.opts); err != nil {
				return nil, err
			}
			if info.Cost < bestInfo.Cost {
				bestIn, bestTmpl, bestInfo = c, tmpl, info
			}
		}
	}
	if bestIn == nil {
		return nil, nil
	}
	phi := withInput(bestTmpl, dp.plan(bestIn))
	o.model.Seed(phi, &bestInfo)
	return &wCandidate{vc: vc, wAliases: w, phi: phi, consumed: consumed}, nil
}

// phiSpec is the synthesized pulled-up group-by.
type phiSpec struct {
	groupCols []schema.ColID
	aggs      []expr.Agg
	having    []expr.Expr
	outputs   []lplan.NamedExpr
}

func (o *optimizer) phiGroupBy(vc *viewCtx, dp *blockDP, mask uint64, w map[string]bool, absorbed []*poolConj) (*phiSpec, error) {
	spec := &phiSpec{}
	seen := map[schema.ColID]bool{}
	add := func(c schema.ColID) {
		if !seen[c] {
			seen[c] = true
			spec.groupCols = append(spec.groupCols, c)
		}
	}
	for _, gc := range vc.view.Block.GroupCols {
		add(gc)
	}

	// Columns of W relations needed above this Φ.
	needed := o.colsNeededAbove(vc, w)
	for _, c := range needed {
		add(c)
	}

	// Keys of W relations (the FK rule: skip when the equi-joins applied
	// inside Φ bind the key).
	for _, r := range dp.rels {
		if !w[r.alias] {
			continue
		}
		key, ok := lplan.Key(r.node)
		if !ok {
			return nil, fmt.Errorf("optimize: pulled relation %q has no key", r.alias)
		}
		if keyBound(key, dp.conjs, mask) {
			continue
		}
		for _, kc := range key {
			add(kc)
		}
	}

	// Non-aggregate columns of absorbed deferred conjuncts.
	for _, pc := range absorbed {
		for _, col := range expr.Columns(pc.inner) {
			if !vc.aggOuts[col] {
				add(col)
			}
		}
	}

	spec.aggs = vc.view.Block.Aggs
	spec.having = append([]expr.Expr{}, vc.view.Block.Having...)
	for _, pc := range absorbed {
		spec.having = append(spec.having, pc.inner)
	}

	// Outputs: the view's own outputs plus pass-through of needed W
	// columns and W keys (so phase-2 conjuncts and key inference work).
	spec.outputs = append([]lplan.NamedExpr{}, vc.view.Block.Outputs...)
	outSeen := map[schema.ColID]bool{}
	for _, ne := range spec.outputs {
		outSeen[ne.As] = true
	}
	for _, gc := range spec.groupCols {
		isViewInner := false
		for _, vgc := range vc.view.Block.GroupCols {
			if gc == vgc {
				isViewInner = true
			}
		}
		if isViewInner || outSeen[gc] {
			continue
		}
		spec.outputs = append(spec.outputs, lplan.NamedExpr{E: expr.ColOf(gc), As: gc})
		outSeen[gc] = true
	}
	return spec, nil
}

// colsNeededAbove returns the W-relation columns that phase 2 still needs:
// referenced by unconsumed pool conjuncts, the top group-by, or the query
// outputs.
func (o *optimizer) colsNeededAbove(vc *viewCtx, w map[string]bool) []schema.ColID {
	var out []schema.ColID
	seen := map[schema.ColID]bool{}
	addFrom := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			if w[c.Rel] && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for _, pc := range o.pool {
		addFrom(pc.outer)
	}
	for _, gc := range o.q.Top.GroupCols {
		if w[gc.Rel] && !seen[gc] {
			seen[gc] = true
			out = append(out, gc)
		}
	}
	for _, a := range o.q.Top.Aggs {
		if a.Arg != nil {
			addFrom(a.Arg)
		}
	}
	for _, ne := range o.q.Top.Outputs {
		addFrom(ne.E)
	}
	return out
}

// phaseTwo optimizes the top block for one combination of pulled views.
func (o *optimizer) phaseTwo(chosen []wCandidate) (lplan.Node, *cost.Info, error) {
	o.stats.Phase2Runs++
	consumedAlias := map[string]bool{}
	consumedConj := map[*poolConj]bool{}
	var prebuilt []prebuiltRel
	for _, c := range chosen {
		for a := range c.wAliases {
			consumedAlias[a] = true
		}
		for pc := range c.consumed {
			consumedConj[pc] = true
		}
		prebuilt = append(prebuilt, prebuiltRel{alias: c.vc.view.Alias, node: c.phi})
	}
	var rels []*qblock.Rel
	for _, r := range o.bRels {
		if !consumedAlias[r.Alias] {
			rels = append(rels, r)
		}
	}
	var conjs []expr.Expr
	for _, pc := range o.pool {
		if !consumedConj[pc] {
			conjs = append(conjs, pc.outer)
		}
	}
	dp, err := o.newBlockDP(rels, prebuilt, nil, conjs, o.topGroupSpec(), o.q.Top.Outputs)
	if err != nil {
		return nil, nil, err
	}
	if err := dp.solve(); err != nil {
		return nil, nil, err
	}
	var visit func(aggMode, *cand)
	if o.each != nil {
		visit = func(m aggMode, c *cand) {
			label := wLabel(chosen)
			if dp.group != nil {
				label = strings.TrimSpace(label + " " + m.String())
			}
			o.each(Alternative{Label: label, Root: c.node, Cost: c.info.Cost})
		}
	}
	best, err := dp.bestFinal(visit)
	if err != nil {
		return nil, nil, err
	}
	return best.node, best.info, nil
}

// wLabel renders a W combination as the search trace and Alternative.Label
// print it: "b:{d,e1}" per view, space-separated.
func wLabel(chosen []wCandidate) string {
	ws := make([]string, len(chosen))
	for i, c := range chosen {
		ws[i] = fmt.Sprintf("%s:{%s}", c.vc.view.Alias, strings.TrimSuffix(setKey(c.wAliases), ","))
	}
	return strings.Join(ws, " ")
}

// minimalInvariantAliases computes V′ for a view block (Section 4.1): the
// smallest set of relations the group-by must wait for. Relations outside
// V′ can be joined after the group-by (they are "invariant"), and the
// optimizer treats them like top-block relations (Section 5.3's B′). It
// runs the DP-level computation (minInvariantMask, which states the removal
// rule) over the block's base relations. A block without a group-by has no
// V′: nothing constrains its join order.
func minimalInvariantAliases(b *qblock.Block) map[string]bool {
	if !b.HasGroupBy() {
		return map[string]bool{}
	}
	var rels []dpRel
	bit := 0
	for _, r := range b.Rels {
		scan := &lplan.Scan{Alias: r.Alias, Table: r.Table}
		rels = append(rels, dpRel{alias: r.Alias, node: scan, mask: 1 << bit})
		bit++
	}
	aliases := aliasMasks(rels)
	var conjs []dpConj
	for _, c := range b.Conjs {
		m, err := maskOfExpr(c, aliases)
		if err != nil {
			// Unresolvable conjunct: treat conservatively by pinning all.
			m = fullMask(len(rels))
		}
		conjs = append(conjs, dpConj{e: c, mask: m})
	}
	spec := &groupSpec{cols: b.GroupCols, aggs: b.Aggs}
	for _, a := range b.Aggs {
		if a.Arg != nil {
			if m, err := maskOfExpr(a.Arg, aliases); err == nil {
				spec.argsMask |= m
			} else {
				spec.argsMask = fullMask(len(rels))
			}
		}
	}
	in := minInvariantMask(rels, conjs, spec)
	out := map[string]bool{}
	for i, r := range rels {
		if in&(1<<i) != 0 {
			out[r.alias] = true
		}
	}
	return out
}
