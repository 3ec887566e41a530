package core

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
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
	// join order or method share a label; in an outer-join block the
	// group-by is always last.
	Label string
	Root  lplan.Node
	Cost  float64
	// Info is what the search derived for the plan, detached from its
	// memory as Plan.Info is.
	Info *cost.Info
}

// Alternatives returns every complete plan Optimize's search finalizes for
// the query, in search order, and the search's counters. Optimize's choice
// is the cheapest of them, the first found winning ties (before
// materialized-view candidates compete); opts.ViewPlans is not consulted.
// Unlike Optimize, the search skips no W combination: it finalizes every
// plan of the paper's search space, those of combinations whose leaves
// alone cost more than a plan already found included.
func Alternatives(q *qblock.Query, opts Options) ([]Alternative, SearchStats, error) {
	o, err := newOptimizer(q, opts)
	if err != nil {
		return nil, SearchStats{}, err
	}
	defer o.mem.release()
	var alts []Alternative
	o.each = func(a Alternative) { alts = append(alts, a) }
	if _, _, err := o.run(); err != nil {
		return nil, SearchStats{}, err
	}
	return alts, *o.stats, nil
}

// newOptimizer validates the query and options and sets up one search. The
// caller releases o.mem when done with everything the search returned.
func newOptimizer(q *qblock.Query, opts Options) (*optimizer, error) {
	if opts.Mode == ModeDefault {
		opts.Mode = ModeFull
	}
	// The combination skip (leavesLose) needs every cost the model charges
	// to be non-negative and finite.
	if w := opts.CPUWeight; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return nil, fmt.Errorf("optimize: CPUWeight %v is not a finite non-negative weight", w)
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
	return &Plan{Root: root, Cost: info.Cost, Info: detach(info), Stats: *o.stats, ViewRewrite: rewrite}, nil
}

// detach copies what the search derived for a plan out of the memory the
// search recycles: the summary and the output order (a merge join's keys
// live in the memo).
func detach(info *cost.Info) *cost.Info {
	d := *info
	d.Rel, d.Order = info.Rel.Clone(), slices.Clone(info.Order)
	return &d
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
	// rels is the B′ relations the outer form touches, one bit per o.bRels
	// entry.
	rels uint64
	// views is the views the outer form touches and aggViews those whose
	// aggregate outputs it references (deferred predicates, Definition 1
	// item 4), one bit per o.views entry.
	views, aggViews uint64
}

type optimizer struct {
	q     *qblock.Query
	opts  Options
	model *cost.Model
	mem   *memo
	stats *SearchStats

	views    []*viewCtx
	pool     []*poolConj                // multi-relation conjuncts of the top pool
	local    map[string][]expr.Expr     // single-relation filters by alias
	residual []expr.Expr                // WHERE conjuncts over aliases an outer join pads
	bRels    []*qblock.Rel              // B′: top base relations, then each view's removed relations as one run
	needed   map[string]map[string]bool // per-alias columns any plan may reference
	scans    map[string]*lplan.Scan     // per alias, the pruned scan under o.local's filters alone
	above    []schema.ColID             // every column phase 2 may reference, once (colsNeededAbove)

	// each, set by Alternatives only, is shown every complete plan the
	// search finalizes; Optimize keeps just the cheapest.
	each func(Alternative)
}

func (o *optimizer) run() (lplan.Node, *cost.Info, error) {
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
		var buf expr.ColumnBuf
		for _, c := range expr.AppendColumns(buf[:0], e) {
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
	for _, c := range o.residual {
		addExpr(c)
	}
	for _, st := range o.q.Top.OuterSteps {
		for _, c := range st.On {
			addExpr(c)
		}
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
// conjuncts into the top pool, and classifies every pool conjunct. In an
// outer-join block a WHERE conjunct over an alias some step pads is
// residual: it filters above every join, so that it sees the padded rows.
func (o *optimizer) decompose() error {
	top := o.q.Top
	o.local = map[string][]expr.Expr{}
	o.bRels = append([]*qblock.Rel{}, top.Rels...)

	var padded map[string]bool
	if len(top.OuterSteps) > 0 {
		if len(o.q.Views) > 0 {
			return fmt.Errorf("optimize: outer-join blocks cannot join aggregate views")
		}
		padded = top.PaddedAliases()
		// An inner step's ON conjuncts over its relation alone filter its scan.
		for _, st := range top.OuterSteps {
			for _, c := range st.On {
				if st.Type == lplan.JoinInner && !slices.ContainsFunc(expr.Rels(c), func(a string) bool { return a != st.Alias }) {
					o.local[st.Alias] = append(o.local[st.Alias], c)
				}
			}
		}
	}
	var poolExprs []expr.Expr
	for _, c := range top.Conjs {
		if padded != nil && slices.ContainsFunc(expr.Rels(c), func(a string) bool { return padded[a] }) {
			o.residual = append(o.residual, c)
			continue
		}
		poolExprs = append(poolExprs, c)
	}

	// Hoisted conjuncts (touching removed relations) enter the pool in
	// outer form: V′-side inner grouping columns renamed to outputs.
	viewAt := map[string]int{}
	for i, v := range o.q.Views {
		vc, hoisted := o.decomposeView(v)
		o.views = append(o.views, vc)
		o.bRels = append(o.bRels, vc.removed...)
		poolExprs = append(poolExprs, hoisted...)
		viewAt[v.Alias] = i
	}

	// Split local filters from multi-relation conjuncts and build both
	// forms of each pool conjunct.
	for _, c := range poolExprs {
		rels := expr.Rels(c)
		if len(rels) == 1 {
			if _, isView := viewAt[rels[0]]; !isView {
				o.local[rels[0]] = append(o.local[rels[0]], c)
				continue
			}
		}
		pc := &poolConj{outer: c}
		var buf expr.ColumnBuf
		for _, col := range expr.AppendColumns(buf[:0], c) {
			i, isView := viewAt[col.Rel]
			if !isView {
				pc.rels |= o.bBit(col.Rel)
				continue
			}
			pc.views |= 1 << i
			if o.views[i].viewOutAggs[col] {
				pc.aggViews |= 1 << i
			}
		}
		if bits.OnesCount64(pc.aggViews) <= 1 {
			sub := map[schema.ColID]expr.Expr{}
			for i, vc := range o.views {
				if pc.views&(1<<i) != 0 {
					maps.Copy(sub, vc.outToInner)
				}
			}
			pc.inner = expr.Substitute(c, sub)
		}
		o.pool = append(o.pool, pc)
	}
	return nil
}

// bBit returns alias's bit in a B′ mask: bit i stands for o.bRels[i]. It is
// 0 for an alias outside B′.
func (o *optimizer) bBit(alias string) uint64 {
	for i, r := range o.bRels {
		if r.Alias == alias {
			return 1 << i
		}
	}
	return 0
}

// moved reports whether alias names one of the view's relations in V − V′.
func (vc *viewCtx) moved(alias string) bool {
	return slices.ContainsFunc(vc.removed, func(r *qblock.Rel) bool { return r.Alias == alias })
}

// hoistConj renames a view conjunct's V′-side columns to view outputs so it
// can live in the top pool. The minimal-invariant-set computation
// guarantees those columns are grouping columns; decomposeView guarantees
// they have bare output names.
func hoistConj(c expr.Expr, vc *viewCtx) (expr.Expr, error) {
	sub := map[schema.ColID]expr.Expr{}
	for _, col := range expr.Columns(c) {
		if vc.moved(col.Rel) {
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

// decomposeView computes V′ and the naming maps for one view, and returns
// the view's conjuncts over V − V′ hoisted to the top pool's outer form.
// When a movable relation's hoisted conjuncts cannot be expressed over the
// view's outputs, the whole view stays intact (V′ = all relations) — a
// sound, conservative fallback.
func (o *optimizer) decomposeView(v *qblock.AggView) (*viewCtx, []expr.Expr) {
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
		var buf expr.ColumnBuf
		for _, col := range expr.AppendColumns(buf[:0], ne.E) {
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

	keep := func() {
		vc.vPrime = v.Block.Rels
		vc.removed = nil
		vc.innerConjs = v.Block.Conjs
	}

	if o.opts.Mode == ModeTraditional {
		keep()
		return vc, nil
	}

	in := minimalInvariantSet(v.Block)
	for i, r := range v.Block.Rels {
		if in&(1<<i) != 0 {
			vc.vPrime = append(vc.vPrime, r)
		} else {
			vc.removed = append(vc.removed, r)
		}
	}
	var hoisted []expr.Expr
	for _, c := range v.Block.Conjs {
		if !slices.ContainsFunc(expr.Rels(c), vc.moved) {
			vc.innerConjs = append(vc.innerConjs, c)
			continue
		}
		outer, err := hoistConj(c, vc)
		if err != nil {
			// Fall back: keep the view whole.
			keep()
			return vc, nil
		}
		hoisted = append(hoisted, outer)
	}
	return vc, hoisted
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
// In an outer-join block steps[i] says how the i-th relation joins (base
// relations first, then prebuilt ones); it is nil elsewhere.
func (o *optimizer) newBlockDP(rels []*qblock.Rel, prebuilt []prebuiltRel, filters map[string][]expr.Expr, conjs []expr.Expr, g *rawGroup, outputs []lplan.NamedExpr, steps []qblock.OuterStep) (*blockDP, error) {
	dp := &blockDP{model: o.model, mem: o.mem, opts: o.opts, stats: o.stats, outputs: outputs,
		rels: make([]dpRel, 0, len(rels)+len(prebuilt)), conjs: make([]dpConj, 0, len(conjs))}
	bit := 0
	for _, r := range rels {
		dp.rels = append(dp.rels, dpRel{alias: r.Alias, node: o.scanOf(r, filters[r.Alias]), mask: 1 << bit})
		bit++
	}
	for _, p := range prebuilt {
		dp.rels = append(dp.rels, dpRel{alias: p.alias, node: p.node, mask: 1 << bit})
		bit++
	}
	dp.aliases = newAliasMasks(dp.rels)
	aliases := dp.aliases
	for _, c := range conjs {
		m, err := maskOfExpr(c, aliases)
		if err != nil {
			return nil, err
		}
		dp.conjs = append(dp.conjs, newConj(c, m, o.model.Cols(), aliases))
	}
	late, err := dp.addSteps(steps, aliases)
	if err != nil {
		return nil, err
	}
	dp.conjs = append(addDerivedEqualities(dp.conjs, aliases, o.model.Cols()), late...)
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

// addSteps applies an outer-join block's steps to the DP's relations. A
// relation an outer step joins gets that step's ON and waits for the
// relations the ON references; it joins only as the padded right input.
// An inner step's ON conjuncts are pool conjuncts that apply no earlier
// than the step's relation joins. One that references a padded relation
// also makes the step's relation wait for it, so that it applies at an
// inner join, never at the outer one; such conjuncts are returned apart,
// as they take no part in equality inference (equiv.go): padding breaks
// the equalities an ON states.
func (dp *blockDP) addSteps(steps []qblock.OuterStep, aliases aliasMasks) ([]dpConj, error) {
	var padded uint64
	var late []dpConj
	for i := range steps {
		r, st := &dp.rels[i], &steps[i]
		for _, c := range st.On {
			m, err := maskOfExpr(c, aliases)
			if err != nil {
				return nil, err
			}
			dc := newConj(c, m|r.mask, dp.model.Cols(), aliases)
			switch {
			case st.Type != lplan.JoinInner:
				r.on = append(r.on, &dc)
				r.req |= m &^ r.mask
			case m&^r.mask == 0: // in o.local
			case m&padded != 0:
				r.req |= m & padded
				late = append(late, dc)
			default:
				dp.conjs = append(dp.conjs, dc)
			}
		}
		if st.Type != lplan.JoinInner {
			r.typ = st.Type
			padded |= r.mask
		}
		if r.typ != lplan.JoinInner || r.req != 0 {
			dp.trailing |= r.mask
		}
	}
	return late, nil
}

// scanOf returns the pruned scan of a relation under its local filters plus
// more. Without more it is built once per Optimize: every DP joining the
// relation — each phase-two run, and phase one when no view conjunct sinks
// into it — shares the node, so the cost model derives its summary once.
func (o *optimizer) scanOf(r *qblock.Rel, more []expr.Expr) *lplan.Scan {
	if len(more) > 0 {
		return o.prunedScan(r, slices.Concat(o.local[r.Alias], more))
	}
	if s := o.scans[r.Alias]; s != nil {
		return s
	}
	if o.scans == nil {
		o.scans = map[string]*lplan.Scan{}
	}
	s := o.prunedScan(r, o.local[r.Alias])
	o.scans[r.Alias] = s
	return s
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
	var all [][]wCandidate
	for i, vc := range o.views {
		cands, err := o.phaseOne(vc, 1<<i)
		if err != nil {
			return nil, nil, err
		}
		if len(cands) == 0 {
			return nil, nil, fmt.Errorf("optimize: no pull-up candidates for view %q", vc.view.Alias)
		}
		all = append(all, cands)
	}

	// Phase 2: enumerate consistent (pairwise disjoint) combinations.
	var bestNode lplan.Node
	var bestInfo *cost.Info
	bestCost := math.Inf(1)

	var rec func(i int, used uint64, chosen []wCandidate) error
	rec = func(i int, used uint64, chosen []wCandidate) error {
		if i == len(all) {
			node, info, err := o.phaseTwo(chosen, bestCost)
			if err != nil {
				return err
			}
			if node == nil {
				o.opts.Trace.Event("phase2", 0, "combination [%s]: skipped, no plan can beat best %.1f",
					o.wLabel(chosen), bestCost)
				return nil
			}
			// Without views there is one, empty combination: nothing to report.
			if o.opts.Trace != nil && len(chosen) > 0 {
				verdict := "kept"
				if info.Cost >= bestCost {
					verdict = fmt.Sprintf("rejected (%.1f >= best %.1f)", info.Cost, bestCost)
				}
				o.opts.Trace.Event("phase2", 0, "combination [%s]: cost %.1f, %s",
					o.wLabel(chosen), info.Cost, verdict)
			}
			if info.Cost < bestCost {
				bestNode, bestInfo, bestCost = node, info, info.Cost
			}
			return nil
		}
		for _, c := range all[i] {
			if c.w&used != 0 {
				continue
			}
			if err := rec(i+1, used|c.w, append(chosen, c)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0, nil); err != nil {
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
	vc  *viewCtx
	w   uint64 // B′ relations consumed by this Φ, a B′ mask
	phi lplan.Node
	// consumed marks pool conjuncts applied inside the Φ.
	consumed map[*poolConj]bool
}

// phaseOne optimizes the extended view: one DP over V′ ∪ B′ without the
// group-by, then a pulled-up group-by per candidate W (Section 5.3). vbit
// is the view's bit in a pool conjunct's view masks.
func (o *optimizer) phaseOne(vc *viewCtx, vbit uint64) ([]wCandidate, error) {
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
	var usable []*poolConj
	var deferred []*poolConj // conjuncts over this view's aggregate outputs
	for _, pc := range o.pool {
		if pc.inner == nil || pc.views&^vbit != 0 {
			continue
		}
		if pc.aggViews&vbit != 0 {
			deferred = append(deferred, pc)
			continue
		}
		usable = append(usable, pc)
		place(pc.inner)
	}

	// The shared phase-1 DP over V′ ∪ B′: no group-by, no outputs. Its
	// relation bits are V′'s, low, then B′'s, so a W is a DP mask shifted
	// left by len(V′). It builds only the states some V′ ∪ W holds, and
	// keeps a plan for each V′ ∪ W, by cross products where its relations
	// do not connect (linked).
	dp, err := o.newBlockDP(slices.Concat(vc.vPrime, o.bRels), nil, filters, dpConjs, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	ws := o.candidateWs(vc, dp)
	dp.reads = make([]uint64, len(ws))
	for i, w := range ws {
		dp.reads[i] = fullMask(len(vc.vPrime)) | w<<len(vc.vPrime)
	}
	if err := dp.solve(); err != nil {
		return nil, err
	}

	out := make([]wCandidate, 0, len(ws))
	for _, w := range ws {
		o.stats.PullUpCandidates++
		cand, err := o.buildPhi(vc, dp, w, deferred, usable)
		if err != nil {
			return nil, err
		}
		if o.opts.Trace != nil {
			info, err := o.model.Info(cand.phi)
			if err == nil {
				o.opts.Trace.Event("pull-up", 0, "view %s, W={%s}: Φ cost %.1f",
					vc.view.Alias, strings.TrimSuffix(o.aliasList(w), ","), info.Cost)
			}
		}
		out = append(out, *cand)
	}
	return out, nil
}

// candidateWs enumerates the pull sets W ⊆ B′ for a view under the
// configured restrictions, as B′ masks. The set V − V′ (traditional
// reconstitution) and the empty set (maximal push-down) are always
// included. Full mode's W's come ordered by aliasList.
func (o *optimizer) candidateWs(vc *viewCtx, dp *blockDP) []uint64 {
	// decompose appended V − V′ to B′ as one run.
	var removed uint64
	off := 0
	if len(vc.removed) > 0 {
		off = slices.Index(o.bRels, vc.removed[0])
		removed = fullMask(len(vc.removed)) << off
	}
	if o.opts.Mode == ModeTraditional {
		// Traditional: exactly the original view.
		return []uint64{removed}
	}
	seen := map[uint64]bool{}
	var out []uint64
	emit := func(w uint64) {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	emit(0)
	emit(removed)

	// Push-down spectrum: subsets of the removed relations (∅ and the full
	// set are emitted above when there are too many).
	if n := len(vc.removed); n <= 10 {
		for m := range uint64(1) << n {
			emit(m << off)
		}
	}

	if o.opts.Mode != ModeFull {
		return out
	}

	// Pull-up: grow W with connected B′ relations, counting only
	// relations foreign to the view against the k budget. What grows from
	// a W depends on W alone, so each W is grown once.
	vPrime := fullMask(len(vc.vPrime))
	grown := map[uint64]bool{}
	var grow func(w uint64)
	grow = func(w uint64) {
		if grown[w] {
			return
		}
		grown[w] = true
		emit(w)
		if o.opts.KLevelPullUp > 0 && bits.OnesCount64(w&^removed) >= o.opts.KLevelPullUp {
			return
		}
		for i := range o.bRels {
			r := uint64(1) << i
			if w&r != 0 {
				continue
			}
			if o.opts.RequireSharedPredicate && !dp.joins(r<<len(vc.vPrime), vPrime|w<<len(vc.vPrime)) {
				continue
			}
			grow(w | r)
		}
	}
	grow(0)
	// Also grow starting from the reconstituted view.
	grow(removed)

	keys := make(map[uint64]string, len(out))
	for _, w := range out {
		keys[w] = o.aliasList(w)
	}
	slices.SortFunc(out, func(a, b uint64) int { return strings.Compare(keys[a], keys[b]) })
	return out
}

// aliasList renders a B′ mask as its sorted aliases, each followed by a
// comma ("d,e1,"): the text Full mode orders candidate W's by. Labels drop
// the last comma.
func (o *optimizer) aliasList(w uint64) string {
	var as []string
	for i, r := range o.bRels {
		if w&(1<<i) != 0 {
			as = append(as, r.Alias)
		}
	}
	slices.Sort(as)
	var b strings.Builder
	for _, a := range as {
		b.WriteString(a)
		b.WriteByte(',')
	}
	return b.String()
}

// buildPhi wraps the phase-1 plan for V′ ∪ W in the pulled-up group-by
// (Definition 1 generalized to a set W).
func (o *optimizer) buildPhi(vc *viewCtx, dp *blockDP, w uint64, deferred, usable []*poolConj) (*wCandidate, error) {
	mask := fullMask(len(vc.vPrime)) | w<<len(vc.vPrime)
	cands := dp.best[mask]

	// Consumed pool conjuncts: usable ones whose relations all sit inside
	// V′ ∪ W, plus the deferred ones absorbable into this Φ's Having.
	consumed := map[*poolConj]bool{}
	for _, pc := range usable {
		if pc.rels&^w == 0 {
			consumed[pc] = true
		}
	}
	var absorbed []*poolConj
	for _, pc := range deferred {
		if pc.rels&^w == 0 {
			absorbed = append(absorbed, pc)
			consumed[pc] = true
		}
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
	var bestGroups float64
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
				bestIn, bestTmpl, bestInfo, bestGroups = c, tmpl, info, groups
			}
		}
	}
	if bestIn == nil {
		return nil, fmt.Errorf("optimize: no plan for V' ∪ W, view %s, W={%s}",
			vc.view.Alias, strings.TrimSuffix(o.aliasList(w), ","))
	}
	phi := withInput(bestTmpl, dp.plan(bestIn), bestGroups)
	o.model.Seed(phi, &bestInfo)
	return &wCandidate{vc: vc, w: w, phi: phi, consumed: consumed}, nil
}

// phiSpec is the synthesized pulled-up group-by.
type phiSpec struct {
	groupCols []schema.ColID
	aggs      []expr.Agg
	having    []expr.Expr
	outputs   []lplan.NamedExpr
}

func (o *optimizer) phiGroupBy(vc *viewCtx, dp *blockDP, mask, w uint64, absorbed []*poolConj) (*phiSpec, error) {
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
	for _, c := range o.colsNeededAbove(w) {
		add(c)
	}

	// Keys of W relations, skipped when the equi-joins applied inside Φ
	// bind the key (keyBound).
	for i, r := range dp.rels[len(vc.vPrime):] {
		if w&(1<<i) == 0 {
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

// colsNeededAbove returns the W-relation columns that phase 2 may need:
// referenced by a pool conjunct, the top group-by, or the query outputs.
// The conjuncts a Φ consumes count too: their columns are what keeps Φ's
// groups apart when keyBound accepts keys bound only to each other
// (TestPhiKeysBoundOnlyToEachOther).
func (o *optimizer) colsNeededAbove(w uint64) []schema.ColID {
	if o.above == nil {
		seen := map[schema.ColID]bool{}
		add := func(c schema.ColID) {
			if !seen[c] {
				seen[c] = true
				o.above = append(o.above, c)
			}
		}
		addFrom := func(e expr.Expr) {
			var buf expr.ColumnBuf
			for _, c := range expr.AppendColumns(buf[:0], e) {
				add(c)
			}
		}
		for _, pc := range o.pool {
			addFrom(pc.outer)
		}
		for _, gc := range o.q.Top.GroupCols {
			add(gc)
		}
		for _, a := range o.q.Top.Aggs {
			if a.Arg != nil {
				addFrom(a.Arg)
			}
		}
		for _, ne := range o.q.Top.Outputs {
			addFrom(ne.E)
		}
	}
	var out []schema.ColID
	for _, c := range o.above {
		if o.bBit(c.Rel)&w != 0 {
			out = append(out, c)
		}
	}
	return out
}

// phaseTwo optimizes the top block for one combination of pulled views.
// Optimize's search skips the combination, returning nil, when the costs of
// its leaves alone lose to bestCost, the best plan of the combinations
// before (leavesLose); Alternatives' searches every combination and shows
// o.each every complete plan.
func (o *optimizer) phaseTwo(chosen []wCandidate, bestCost float64) (lplan.Node, *cost.Info, error) {
	o.stats.Phase2Runs++
	var consumedRels uint64
	consumedConj := map[*poolConj]bool{}
	var prebuilt []prebuiltRel
	for _, c := range chosen {
		consumedRels |= c.w
		for pc := range c.consumed {
			consumedConj[pc] = true
		}
		prebuilt = append(prebuilt, prebuiltRel{alias: c.vc.view.Alias, node: c.phi})
	}
	var rels []*qblock.Rel
	for i, r := range o.bRels {
		if consumedRels&(1<<i) == 0 {
			rels = append(rels, r)
		}
	}
	var conjs []expr.Expr
	for _, pc := range o.pool {
		if !consumedConj[pc] {
			conjs = append(conjs, pc.outer)
		}
	}
	dp, err := o.topDP(rels, prebuilt, conjs)
	if err != nil {
		return nil, nil, err
	}
	if err := dp.prepare(); err != nil {
		return nil, nil, err
	}
	if err := dp.addLeaves(); err != nil {
		return nil, nil, err
	}
	if o.each == nil && dp.leavesLose(bestCost) {
		return nil, nil, nil
	}
	if err := dp.join(); err != nil {
		return nil, nil, err
	}
	var visit func(aggMode, lplan.Node, cost.Info)
	if o.each != nil {
		visit = func(m aggMode, root lplan.Node, info cost.Info) {
			label := o.wLabel(chosen)
			if dp.group != nil {
				label = strings.TrimSpace(label + " " + m.String())
			}
			o.each(Alternative{Label: label, Root: root, Cost: info.Cost, Info: detach(&info)})
		}
	}
	return dp.bestFinal(visit)
}

// topDP assembles the DP that completes the top block. An outer-join
// block's join is planned first (outerPlan); it enters that DP as its one
// relation, under a Filter of the residual WHERE conjuncts, so the
// group-by stays last: no placement moves it across padding.
func (o *optimizer) topDP(rels []*qblock.Rel, prebuilt []prebuiltRel, conjs []expr.Expr) (*blockDP, error) {
	top := o.q.Top
	if len(top.OuterSteps) > 0 {
		joined, err := o.outerPlan(len(top.Rels), conjs)
		if err != nil {
			return nil, err
		}
		if len(o.residual) > 0 {
			joined = &lplan.Filter{In: joined, Preds: o.residual}
		}
		rels, prebuilt, conjs = nil, []prebuiltRel{{node: joined}}, nil
	}
	return o.newBlockDP(rels, prebuilt, nil, conjs, o.topGroupSpec(), top.Outputs, nil)
}

// outerPlan plans the join of Rels[:n] of an outer-join block by one DP.
// RIGHT and FULL steps are fixed points: the relations before the last such
// step are planned first, and joined to the step's relation, a RIGHT join
// as a LEFT one with the inputs swapped. That join enters the DP as one
// prebuilt relation.
func (o *optimizer) outerPlan(n int, conjs []expr.Expr) (lplan.Node, error) {
	top := o.q.Top
	start := 0
	var prebuilt []prebuiltRel
	for i := n - 2; i >= 0; i-- {
		st := top.OuterSteps[i] // joins Rels[i+1]
		if st.Type != lplan.JoinRight && st.Type != lplan.JoinFull {
			continue
		}
		before, err := o.outerPlan(i+1, nil)
		if err != nil {
			return nil, err
		}
		// The step's relation, then the plan before it.
		fixed := []qblock.OuterStep{{}, {Type: lplan.JoinLeft, On: st.On}}
		if st.Type == lplan.JoinFull {
			fixed = []qblock.OuterStep{{Type: lplan.JoinFull, On: st.On}, {}}
		}
		joined, err := o.bestPlan(top.Rels[i+1:i+2], []prebuiltRel{{node: before}}, nil, fixed)
		if err != nil {
			return nil, err
		}
		prebuilt, start = []prebuiltRel{{alias: st.Alias, node: joined}}, i+2
		break
	}
	rels := top.Rels[start:n]
	steps := make([]qblock.OuterStep, len(rels)+len(prebuilt))
	for k := range rels {
		if start+k > 0 {
			steps[k] = top.OuterSteps[start+k-1]
		}
	}
	return o.bestPlan(rels, prebuilt, conjs, steps)
}

// bestPlan plans a join without group-by or outputs and returns the
// cheapest plan, its properties known to the cost model.
func (o *optimizer) bestPlan(rels []*qblock.Rel, prebuilt []prebuiltRel, conjs []expr.Expr, steps []qblock.OuterStep) (lplan.Node, error) {
	dp, err := o.newBlockDP(rels, prebuilt, nil, conjs, nil, nil, steps)
	if err != nil {
		return nil, err
	}
	if err := dp.solve(); err != nil {
		return nil, err
	}
	node, info, err := dp.bestFinal(nil)
	if err != nil {
		return nil, err
	}
	o.model.Seed(node, info)
	return node, nil
}

// wLabel renders a W combination as the search trace and Alternative.Label
// print it: "b:{d,e1}" per view, space-separated.
func (o *optimizer) wLabel(chosen []wCandidate) string {
	ws := make([]string, len(chosen))
	for i, c := range chosen {
		ws[i] = fmt.Sprintf("%s:{%s}", c.vc.view.Alias, strings.TrimSuffix(o.aliasList(c.w), ","))
	}
	return strings.Join(ws, " ")
}

// minimalInvariantSet computes V′ for a view block (Section 4.1), one bit
// per b.Rels entry: the smallest set of relations the group-by must wait
// for. Relations outside V′ can be joined after the group-by (they are
// "invariant"), and the optimizer treats them like top-block relations
// (Section 5.3's B′). It runs the DP-level computation (minInvariantMask,
// which states the removal rule) over the block's base relations. A block
// without a group-by has no V′: nothing constrains its join order.
func minimalInvariantSet(b *qblock.Block) uint64 {
	if !b.HasGroupBy() {
		return 0
	}
	var rels []dpRel
	for i, r := range b.Rels {
		scan := &lplan.Scan{Alias: r.Alias, Table: r.Table}
		rels = append(rels, dpRel{alias: r.Alias, node: scan, mask: 1 << i})
	}
	aliases := newAliasMasks(rels)
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
	return minInvariantMask(rels, conjs, spec)
}
