package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"aggview/internal/arena"
	"aggview/internal/cost"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/stats"
)

// aggMode records what a DP plan has already computed for the block's
// pending group-by.
type aggMode int

const (
	modeNone    aggMode = iota // no aggregation applied yet
	modePartial                // a coalescing pre-aggregate (G2) was applied
	modeFull                   // the block's group-by was applied (invariant placement)
)

// String names the placement of a complete plan's group-by, as
// Alternative.Label prints it.
func (m aggMode) String() string {
	switch m {
	case modeNone:
		return "group-by last"
	case modePartial:
		return "coalescing"
	case modeFull:
		return "eager"
	default:
		return fmt.Sprintf("aggMode(%d)", int(m))
	}
}

// dpRel is one relation of a block DP: a base scan or a prebuilt subplan
// (an optimized aggregate view or a pulled-up Φ(V′, W)).
type dpRel struct {
	alias string
	node  lplan.Node
	mask  uint64
}

// dpConj is a conjunct annotated with the relations it touches. derived
// marks equalities synthesized from equivalence classes (see equiv.go). For
// a bare column equality, eq is set and a, b are its columns' ordinals in
// the cost model's column index.
type dpConj struct {
	e       expr.Expr
	mask    uint64
	derived bool
	eq      bool
	a, b    int
}

// newConj annotates a conjunct, resolving a bare equality's columns.
func newConj(e expr.Expr, mask uint64, cols *stats.ColIndex) dpConj {
	c := dpConj{e: e, mask: mask}
	if a, b, ok := bareEquality(e); ok {
		c.eq, c.a, c.b = true, cols.Ord(a), cols.Ord(b)
	}
	return c
}

// groupSpec is the block's pending group-by.
type groupSpec struct {
	cols         []schema.ColID
	aggs         []expr.Agg
	having       []expr.Expr
	minInvariant uint64 // relations that must be joined before a full placement
	argsMask     uint64 // relations feeding aggregate arguments
	decomposable bool
}

// placement records where a join candidate applies the block's pending
// group-by early, below the join, on one of its inputs.
type placement uint8

const (
	placeNone        placement = iota
	placeLeftHash              // the block's group-by (hash) over the left input
	placeLeftSort              // the block's group-by (sort) over the left input
	placeLeftPartial           // a coalescing pre-aggregate over the left input
	placeRightHash             // ... and the same three over the incoming relation
	placeRightSort
	placeRightPartial
)

// entry is one plan of the search memo: a fixed-size record holding what
// the search compares (cost, interesting order, aggregation mode), what
// extending the plan needs (its output properties), and the back-pointers a
// tree is built from if the plan is ever handed on. A leaf stands for one
// DP relation; any other entry is join(left, rels[rel]) under step.preds by
// method, with an early group-by on one input as place says. Candidates
// live by value in a scratch buffer; only the ones a state retains are
// copied into the per-query arena.
type entry struct {
	info   cost.Info
	order  int32 // info.Order interned in the DP's order table
	mode   aggMode
	method lplan.JoinMethod
	place  placement
	rel    int32     // the (right) relation
	left   *entry    // nil for a leaf
	step   *joinStep // nil for a leaf
	mask   uint64    // relations joined
	early  *earlyAgg // the pending group-by costed over this plan, on first need
	node   lplan.Node
}

// bucketKey identifies the dominance bucket of a plan: plans of one state
// compete only with plans of equal aggregation mode and output order.
type bucketKey struct {
	mode  aggMode
	order int32
}

func (e *entry) bucket() bucketKey { return bucketKey{e.mode, e.order} }

// joinStep is what every candidate joining plan(prev) with relation r
// shares: the conjuncts the step applies, the physical methods open to it,
// and the cost model's description of the join, once with r as it is and
// once with an early group-by over r (no longer a scan: materialized for
// rescans).
type joinStep struct {
	preds       []expr.Expr // carved from the memo: node copies them out
	spec, gspec cost.JoinSpec
	methods     [3]lplan.JoinMethod
	nMethods    int
}

// earlyAgg is the block's pending group-by costed over one plan: the full
// group-by by both methods (logical properties shared) and the coalescing
// pre-aggregate.
type earlyAgg struct {
	full         [2]cost.Info // hash, sort
	partial      [1]cost.Info
	hasFull      bool
	triedPartial bool
	hasPartial   bool // false after trying: no pre-aggregate applies
}

// partialSpec is the coalescing pre-aggregate over the relations of one
// mask, described once: tmpl is the group-by without its input (nil when it
// would be scalar before a join), width its output tuple width.
type partialSpec struct {
	tmpl  *lplan.GroupBy
	width int
}

// memo is the per-Optimize arena of the search: retained entries, the join
// steps, the early-aggregation records and the cost model's column
// statistics are carved from slabs recycled across queries, and the
// candidate scratch buffers are reused across states.
type memo struct {
	stats    *stats.Arena // the cost model's statistics
	entries  arena.Slab[entry]
	early    arena.Slab[earlyAgg]
	steps    arena.Slab[joinStep]
	preds    arena.Slab[expr.Expr]
	cands    []entry // candidates of the extension being costed
	retained []entry // retained set of the state being built
}

// maxPooledMemoBytes keeps a memo grown by one huge search from being
// pinned by the pool.
const maxPooledMemoBytes = 8 << 20

var memoPool = sync.Pool{New: func() any { return &memo{stats: stats.NewArena()} }}

// release zeroes the memo's slabs and recycles it. Nothing carved from it
// may be used afterwards: plans leave the search as lplan trees and
// detached numbers.
func (m *memo) release() {
	if m.stats.Bytes()+m.entries.Bytes()+m.early.Bytes()+m.steps.Bytes()+m.preds.Bytes() > maxPooledMemoBytes {
		return
	}
	m.stats.Reset()
	m.entries.Reset()
	m.early.Reset()
	m.steps.Reset()
	m.preds.Reset()
	clear(m.cands[:cap(m.cands)])
	clear(m.retained[:cap(m.retained)])
	memoPool.Put(m)
}

// blockDP enumerates linear (aggregate) join trees for one block.
type blockDP struct {
	model   *cost.Model
	mem     *memo
	rels    []dpRel
	conjs   []dpConj
	group   *groupSpec
	outputs []lplan.NamedExpr
	opts    Options
	stats   *SearchStats

	best map[uint64][]entry // the state table: retained plans per relation set

	orders  [][]schema.ColID        // interned output orders; index 0 is "unordered"
	schema  schema.Schema           // every column of every relation
	colMask map[schema.ColID]uint64 // the relation providing each column

	fullTmpl  [2]*lplan.GroupBy // the pending group-by without input: hash, sort
	fullWidth int
	conjCols  [][]schema.ColID        // the columns of each conjunct, for partialSpecOf
	partials  map[uint64]*partialSpec // per relation set, on first need

	dsu     colDSU // prunedNewPreds' scratch
	predBuf []expr.Expr
}

// greedyEnabled reports whether early group-by placement is allowed.
func (dp *blockDP) greedyEnabled() bool {
	return dp.group != nil && dp.opts.Mode != ModeTraditional
}

func fullMask(n int) uint64 { return (uint64(1) << n) - 1 }

// aliasMasks maps every alias appearing in a DP relation's output schema
// to that relation's bit. A prebuilt subplan (e.g. a pulled-up Φ) may
// provide several aliases.
func aliasMasks(rels []dpRel) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range rels {
		for _, c := range r.node.Schema() {
			out[c.ID.Rel] |= r.mask
		}
	}
	return out
}

// maskOfExpr returns the mask of DP relations an expression touches.
func maskOfExpr(e expr.Expr, aliases map[string]uint64) (uint64, error) {
	var m uint64
	for _, rel := range expr.Rels(e) {
		bit, ok := aliases[rel]
		if !ok {
			return 0, fmt.Errorf("dp: expression %s references unknown relation %q", e, rel)
		}
		m |= bit
	}
	return m, nil
}

// setBest records the retained plans of a relation set, copied into the memo.
func (dp *blockDP) setBest(s uint64, plans []entry) {
	cell := dp.mem.entries.Alloc(len(plans))
	copy(cell, plans)
	dp.best[s] = cell
}

// internOrder returns the id of an output order in the DP's order table.
func (dp *blockDP) internOrder(o []schema.ColID) int32 {
	if len(o) == 0 {
		return 0
	}
	for i, have := range dp.orders {
		if len(have) == len(o) && (&have[0] == &o[0] || slices.Equal(have, o)) {
			return int32(i)
		}
	}
	dp.orders = append(dp.orders, o)
	return int32(len(dp.orders) - 1)
}

// nextOfSize returns the next larger mask with as many set bits (Gosper).
func nextOfSize(s uint64) uint64 {
	low := s & -s
	ripple := s + low
	return ((ripple^s)>>2)/low | ripple
}

// solve fills the DP table bottom-up.
func (dp *blockDP) solve() error {
	n := len(dp.rels)
	if n == 0 {
		return fmt.Errorf("dp: block has no relations")
	}
	if n > 62 {
		return fmt.Errorf("dp: too many relations (%d)", n)
	}
	dp.best = map[uint64][]entry{}
	dp.orders = [][]schema.ColID{nil}
	dp.colMask = map[schema.ColID]uint64{}
	for _, r := range dp.rels {
		for _, c := range r.node.Schema() {
			dp.colMask[c.ID] |= r.mask
		}
		dp.schema = append(dp.schema, r.node.Schema()...)
	}
	if dp.group != nil {
		for i, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
			dp.fullTmpl[i] = &lplan.GroupBy{
				GroupCols: dp.group.cols,
				Aggs:      dp.group.aggs,
				Having:    dp.group.having,
				Method:    m,
			}
		}
		dp.fullWidth = dp.fullTmpl[0].SchemaOver(dp.schema).AvgWidth()
		dp.conjCols = make([][]schema.ColID, len(dp.conjs))
		for i, c := range dp.conjs {
			dp.conjCols[i] = expr.Columns(c.e)
		}
		dp.partials = map[uint64]*partialSpec{}
	}

	// Size-1 states.
	for i := range dp.rels {
		r := &dp.rels[i]
		info, err := dp.model.Info(r.node)
		if err != nil {
			return err
		}
		if err := tickPlan(dp.stats, dp.opts); err != nil {
			return err
		}
		leaf := entry{info: *info, order: dp.internOrder(info.Order), rel: int32(i), mask: r.mask, node: r.node}
		dp.setBest(r.mask, []entry{leaf})
		dp.stats.States++
	}

	// Process subsets in increasing popcount order, each level's masks in
	// increasing order.
	full := fullMask(n)
	for size := 2; size <= n; size++ {
		for s := fullMask(size); s <= full; s = nextOfSize(s) {
			if err := dp.buildState(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildState enumerates all ways to form subset s by extending a size-1-
// smaller state with one relation, applying the greedy conservative
// heuristic at each extension.
func (dp *blockDP) buildState(s uint64) error {
	retained := dp.mem.retained[:0]
	generated := 0
	for i := range dp.rels {
		r := &dp.rels[i]
		if s&r.mask == 0 {
			continue
		}
		prev := s &^ r.mask
		prevCands := dp.best[prev]
		if len(prevCands) == 0 {
			continue
		}
		step := dp.newStep(prev, r)
		for j := range prevCands {
			ext, err := dp.extend(&prevCands[j], int32(i), step, s)
			if err != nil {
				return err
			}
			generated += len(ext)
			retained = dp.merge(retained, ext)
		}
	}
	dp.mem.retained = retained
	if len(retained) > 0 {
		dp.setBest(s, retained)
		dp.stats.States++
		dp.opts.Trace.State(bits.OnesCount64(s), generated, len(retained))
	}
	return nil
}

// newStep describes the join of plan(prev) with r: the conjuncts it applies
// and the physical methods open to it.
func (dp *blockDP) newStep(prev uint64, r *dpRel) *joinStep {
	st := dp.mem.steps.New()
	scratch := dp.prunedNewPreds(prev, r.mask)
	st.preds = dp.mem.preds.Alloc(len(scratch))
	copy(st.preds, scratch)
	st.spec = dp.model.NewJoinSpec(lplan.JoinInner, st.preds, r.node,
		func(c schema.ColID) bool { return dp.colMask[c]&prev != 0 })
	add := func(m lplan.JoinMethod) {
		st.methods[st.nMethods] = m
		st.nMethods++
	}
	add(lplan.JoinBlockNL)
	if len(st.spec.LCols) > 0 {
		if !dp.opts.NoHashJoin {
			add(lplan.JoinHash)
		}
		add(lplan.JoinMerge)
	}
	st.gspec = st.spec
	st.gspec.Inner = nil
	return st
}

// side returns the join description and methods for a candidate of the
// step: over r as it is, or over an early group-by on r.
func (st *joinStep) side(groupedRight bool) (*cost.JoinSpec, []lplan.JoinMethod) {
	spec := &st.spec
	if groupedRight {
		spec = &st.gspec
	}
	return spec, st.methods[:st.nMethods]
}

// extend costs the candidate plans for join(c, rels[ri]), including the
// greedy conservative early-aggregation alternatives, and applies the
// paper's local choice rule. The result aliases the memo's scratch buffer:
// it is valid until the next extend.
func (dp *blockDP) extend(c *entry, ri int32, st *joinStep, s uint64) ([]entry, error) {
	dp.mem.cands = dp.mem.cands[:0]
	r := &dp.rels[ri]
	rleaf := &dp.best[r.mask][0]
	base := entry{mode: c.mode, rel: ri, left: c, step: st, mask: s}

	spec, methods := st.side(false)
	if err := dp.joinPlans(base, &c.info, &rleaf.info, spec, methods, new(cost.Props)); err != nil {
		return nil, err
	}
	if !dp.greedyEnabled() || c.mode != modeNone {
		return dp.mem.cands, nil
	}
	nPlain := len(dp.mem.cands)
	prev := s &^ r.mask

	// (2a) invariant placement: the block's group-by applied on plan(prev).
	if prev&dp.group.minInvariant == dp.group.minInvariant {
		if err := dp.joinOverEarly(base, c, rleaf, st, placeLeftHash, false); err != nil {
			return nil, err
		}
	}
	// (2b) coalescing pre-aggregation of plan(prev). An empty argsMask
	// (COUNT(*) only) pre-aggregates on either side.
	if dp.group.decomposable && dp.group.argsMask&^prev == 0 {
		if err := dp.joinOverEarly(base, c, rleaf, st, placeLeftPartial, false); err != nil {
			return nil, err
		}
	}
	// (2c) early aggregation of the incoming relation r (join the
	// pre-aggregated or fully grouped r instead).
	if r.mask&dp.group.minInvariant == dp.group.minInvariant && dp.group.minInvariant != 0 {
		if err := dp.joinOverEarly(base, c, rleaf, st, placeLeftHash, true); err != nil {
			return nil, err
		}
	}
	if dp.group.decomposable && dp.group.argsMask&^r.mask == 0 {
		if err := dp.joinOverEarly(base, c, rleaf, st, placeLeftPartial, true); err != nil {
			return nil, err
		}
	}
	plain, aggAlts := dp.mem.cands[:nPlain], dp.mem.cands[nPlain:]
	if len(aggAlts) == 0 {
		return plain, nil
	}

	// Greedy conservative choice (Section 5.2): pick the aggregated
	// alternative only when it is cheaper than the best plain plan and no
	// wider; otherwise keep the plain plans.
	plainBest := cheapest(plain)
	aggBest := cheapest(aggAlts)
	if plainBest == nil {
		return aggAlts, nil
	}
	lvl := bits.OnesCount64(s)
	if aggBest.info.Cost < plainBest.info.Cost && aggBest.info.Width <= plainBest.info.Width {
		dp.opts.Trace.Greedy(lvl, true)
		if dp.opts.Trace != nil {
			describe := (&lplan.Join{Preds: st.preds, Method: aggBest.method}).Describe()
			dp.opts.Trace.Event("greedy-accept", lvl, "%s: cost %.1f < %.1f, width %dB <= %dB",
				describe, aggBest.info.Cost, plainBest.info.Cost,
				aggBest.info.Width, plainBest.info.Width)
		}
		dp.mem.cands[nPlain] = *aggBest
		return dp.mem.cands[:nPlain+1], nil
	}
	dp.opts.Trace.Greedy(lvl, false)
	if dp.opts.Trace != nil {
		reason := ""
		if aggBest.info.Cost >= plainBest.info.Cost {
			reason = fmt.Sprintf("not cheaper (%.1f >= %.1f)", aggBest.info.Cost, plainBest.info.Cost)
		}
		if aggBest.info.Width > plainBest.info.Width {
			if reason != "" {
				reason += ", "
			}
			reason += fmt.Sprintf("wider (%dB > %dB)", aggBest.info.Width, plainBest.info.Width)
		}
		dp.opts.Trace.Event("greedy-reject", lvl, "early aggregation rejected: %s", reason)
	}
	return plain, nil
}

func cheapest(cs []entry) *entry {
	var best *entry
	for i := range cs {
		if best == nil || cs[i].info.Cost < best.info.Cost {
			best = &cs[i]
		}
	}
	return best
}

// joinPlans appends the physical join alternatives for l ⋈ r to the
// candidate buffer, one per method, each counted and polled as a costed
// plan. base carries the fields the alternatives share. The join's logical
// properties are derived into *props unless a sibling call with logically
// identical inputs already left them there.
func (dp *blockDP) joinPlans(base entry, l, r *cost.Info, spec *cost.JoinSpec, methods []lplan.JoinMethod, props *cost.Props) error {
	if props.Rel == nil {
		// A join without projection outputs both inputs' columns under one
		// tuple header.
		*props = dp.model.JoinProps(l, r, spec, l.Width+r.Width-emptyTupleWidth)
	}
	base.info.Props = *props
	for _, m := range methods {
		extra, order, err := dp.model.JoinMethodCost(m, spec, l, r)
		if err != nil {
			return err
		}
		if err := tickPlan(dp.stats, dp.opts); err != nil {
			return err
		}
		base.method = m
		base.info.Cost, base.info.Order = dp.model.JoinCost(l, r, props.Rows, extra), order
		base.order = dp.internOrder(order)
		dp.mem.cands = append(dp.mem.cands, base)
	}
	return nil
}

// emptyTupleWidth is the width schema.AvgWidth accounts for a tuple's
// header, which a join's output pays once, not once per input.
var emptyTupleWidth = schema.Schema(nil).AvgWidth()

// joinOverEarly appends the join alternatives that apply the pending
// group-by early: the block's own group-by by either method (kind =
// placeLeftHash) or the coalescing pre-aggregate, when one applies (kind =
// placeLeftPartial), on the left input or, with right set, on the incoming
// relation. The two methods of a full group-by group the same rows, so the
// join above them is derived once.
func (dp *blockDP) joinOverEarly(base entry, c, rleaf *entry, st *joinStep, kind placement, right bool) error {
	in := c
	if right {
		in = rleaf
		kind += placeRightHash - placeLeftHash
	}
	var grouped []cost.Info
	if kind == placeLeftHash || kind == placeRightHash {
		ea, err := dp.fullOver(in)
		if err != nil {
			return err
		}
		base.mode, grouped = modeFull, ea.full[:]
	} else {
		ea, err := dp.partialOver(in)
		if err != nil || !ea.hasPartial {
			return err
		}
		base.mode, grouped = modePartial, ea.partial[:]
	}
	spec, methods := st.side(right)
	var props cost.Props
	for i := range grouped {
		dp.stats.GroupPlacements++
		base.place = kind + placement(i)
		l, r := &c.info, &rleaf.info
		if right {
			r = &grouped[i]
		} else {
			l = &grouped[i]
		}
		if err := dp.joinPlans(base, l, r, spec, methods, &props); err != nil {
			return err
		}
	}
	return nil
}

// earlyOf returns the entry's early-aggregation record.
func (dp *blockDP) earlyOf(e *entry) *earlyAgg {
	if e.early == nil {
		e.early = dp.mem.early.New()
	}
	return e.early
}

// groupOver costs the group-by tmpl describes (by tmpl.Method) over a plan,
// given the logical properties GroupProps derived for it.
func (dp *blockDP) groupOver(in *cost.Info, tmpl *lplan.GroupBy, props cost.Props, groups float64) (cost.Info, error) {
	extra, order, err := dp.model.GroupMethodCost(tmpl, in, groups, props.Width)
	if err != nil {
		return cost.Info{}, err
	}
	return cost.Info{Props: props, Cost: dp.model.GroupCost(in, props.Rows, extra), Order: order}, nil
}

// fullOver costs the block's group-by over a plan, by both methods, once
// per plan however many joins then consider it.
func (dp *blockDP) fullOver(e *entry) (*earlyAgg, error) {
	ea := dp.earlyOf(e)
	if ea.hasFull {
		return ea, nil
	}
	props, groups := dp.model.GroupProps(&e.info, dp.fullTmpl[0], dp.fullWidth)
	for i, tmpl := range dp.fullTmpl {
		info, err := dp.groupOver(&e.info, tmpl, props, groups)
		if err != nil {
			return nil, err
		}
		ea.full[i] = info
	}
	ea.hasFull = true
	return ea, nil
}

// partialOver costs the coalescing pre-aggregate over a plan, once per
// plan; hasPartial stays false when none applies.
func (dp *blockDP) partialOver(e *entry) (*earlyAgg, error) {
	ea := dp.earlyOf(e)
	if ea.triedPartial {
		return ea, nil
	}
	ea.triedPartial = true
	ps := dp.partialSpecOf(e.mask)
	if ps.tmpl == nil {
		return ea, nil
	}
	props, groups := dp.model.GroupProps(&e.info, ps.tmpl, ps.width)
	info, err := dp.groupOver(&e.info, ps.tmpl, props, groups)
	if err != nil {
		return nil, err
	}
	ea.partial[0], ea.hasPartial = info, true
	return ea, nil
}

// partialSpecOf describes the coalescing pre-aggregate G2 over a subplan
// (in no aggregation mode) covering the relations in mask: it groups by the
// block grouping columns available plus every column that later conjuncts
// still need, and computes the decomposed partial aggregates. The
// description depends on the relation set alone, so it is built once.
func (dp *blockDP) partialSpecOf(mask uint64) *partialSpec {
	if ps := dp.partials[mask]; ps != nil {
		return ps
	}
	ps := &partialSpec{}
	dp.partials[mask] = ps
	var groupCols []schema.ColID
	add := func(c schema.ColID) {
		if dp.colMask[c]&mask != 0 && !slices.Contains(groupCols, c) {
			groupCols = append(groupCols, c)
		}
	}
	for _, gc := range dp.group.cols {
		add(gc)
	}
	for i, c := range dp.conjs {
		if c.mask&^mask == 0 {
			continue // fully applied inside the subplan
		}
		if c.mask&mask == 0 {
			continue // does not touch it
		}
		for _, col := range dp.conjCols[i] {
			add(col)
		}
	}
	if len(groupCols) == 0 {
		return ps // the partial aggregate would be scalar before a join
	}
	var partials []expr.Agg
	for _, a := range dp.group.aggs {
		parts, _, err := a.DecomposeAgg()
		if err != nil {
			return ps
		}
		for _, p := range parts {
			partials = append(partials, p.Partial)
		}
	}
	ps.tmpl = &lplan.GroupBy{GroupCols: groupCols, Aggs: partials, Method: lplan.AggHash}
	ps.width = ps.tmpl.SchemaOver(dp.schema).AvgWidth()
	return ps
}

// merge inserts candidates into the state's retained set, keeping the
// cheapest plan per (interesting order, mode) bucket.
func (dp *blockDP) merge(retained []entry, add []entry) []entry {
	for i := range add {
		c := &add[i]
		key := c.bucket()
		replaced := false
		dominated := false
		for j := range retained {
			r := &retained[j]
			if r.bucket() != key {
				continue
			}
			if c.info.Cost < r.info.Cost {
				*r = *c
				replaced = true
			} else {
				dominated = true
			}
			break
		}
		if !replaced && !dominated {
			retained = append(retained, *c)
		}
	}
	return retained
}

// plan materializes the plan tree of a memo entry for handing on, and tells
// the cost model its properties, so operators stacked on it are costed from
// the memo's numbers.
func (dp *blockDP) plan(e *entry) lplan.Node {
	n := dp.node(e)
	dp.model.Seed(n, &e.info)
	return n
}

// node builds (once) the tree the entry's back-pointers describe.
func (dp *blockDP) node(e *entry) lplan.Node {
	if e.node != nil {
		return e.node
	}
	l, r := dp.node(e.left), dp.rels[e.rel].node
	switch e.place {
	case placeLeftHash, placeLeftSort:
		l = withInput(dp.fullTmpl[e.place-placeLeftHash], l)
	case placeLeftPartial:
		l = withInput(dp.partialSpecOf(e.left.mask).tmpl, l)
	case placeRightHash, placeRightSort:
		r = withInput(dp.fullTmpl[e.place-placeRightHash], r)
	case placeRightPartial:
		r = withInput(dp.partialSpecOf(dp.rels[e.rel].mask).tmpl, r)
	}
	e.node = &lplan.Join{L: l, R: r, Preds: slices.Clone(e.step.preds), Method: e.method}
	return e.node
}

// withInput attaches an input to a group-by described without one.
func withInput(tmpl *lplan.GroupBy, in lplan.Node) *lplan.GroupBy {
	return &lplan.GroupBy{
		In:        in,
		GroupCols: tmpl.GroupCols,
		Aggs:      tmpl.Aggs,
		Having:    tmpl.Having,
		Outputs:   tmpl.Outputs,
		Method:    tmpl.Method,
	}
}

// cand is a complete plan for the block: a tree and its properties.
type cand struct {
	node lplan.Node
	info *cost.Info
}

// finalize completes a full-set plan: the pending group-by is applied
// according to the plan's mode, then the block outputs.
func (dp *blockDP) finalize(c *entry) (*cand, error) {
	node := dp.plan(c)
	costed := func(n lplan.Node) (*cand, error) {
		info, err := dp.model.Info(n)
		if err != nil {
			return nil, err
		}
		return &cand{node: n, info: info}, nil
	}
	if dp.group != nil {
		switch c.mode {
		case modeNone:
			var best *cand
			consider := func(n lplan.Node) error {
				v, err := costed(n)
				if err != nil {
					return err
				}
				if err := tickPlan(dp.stats, dp.opts); err != nil {
					return err
				}
				if best == nil || v.info.Cost < best.info.Cost {
					best = v
				}
				return nil
			}
			for _, tmpl := range dp.fullTmpl {
				g := withInput(tmpl, node)
				g.Outputs = dp.outputs
				if err := consider(g); err != nil {
					return nil, err
				}
				// Successive group-bys (e.g. a top group-by directly over a
				// pulled-up view) can often be combined into one (paper §3);
				// keep the merged form as an alternative when it applies.
				if merged, err := mergeGroupBys(g); err == nil {
					if err := consider(merged); err != nil {
						return nil, err
					}
				}
			}
			return best, nil

		case modePartial:
			top, err := dp.coalescingTop(node)
			if err != nil {
				return nil, err
			}
			v, err := costed(top)
			if err != nil {
				return nil, err
			}
			if err := tickPlan(dp.stats, dp.opts); err != nil {
				return nil, err
			}
			return v, nil
		}
		// modeFull: group-by already applied (without outputs); project them.
	}
	if len(dp.outputs) > 0 {
		return costed(&lplan.Project{In: node, Items: dp.outputs})
	}
	return &cand{node: node, info: &c.info}, nil
}

// coalescingTop builds the final group-by for a plan in which a partial
// pre-aggregate was applied: it coalesces the partial columns and rebuilds
// the original aggregate values for Having and Outputs.
func (dp *blockDP) coalescingTop(in lplan.Node) (lplan.Node, error) {
	var topAggs []expr.Agg
	finalSub := map[schema.ColID]expr.Expr{}
	for _, a := range dp.group.aggs {
		parts, finalE, err := a.DecomposeAgg()
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			topAggs = append(topAggs, expr.Agg{Kind: p.Coalesce, Arg: expr.ColOf(p.Partial.Out), Out: p.Partial.Out})
		}
		finalSub[a.Out] = finalE
	}
	having := make([]expr.Expr, len(dp.group.having))
	for i, h := range dp.group.having {
		having[i] = expr.Substitute(h, finalSub)
	}
	var outputs []lplan.NamedExpr
	if len(dp.outputs) > 0 {
		outputs = make([]lplan.NamedExpr, len(dp.outputs))
		for i, ne := range dp.outputs {
			outputs[i] = lplan.NamedExpr{E: expr.Substitute(ne.E, finalSub), As: ne.As}
		}
	} else {
		for _, gc := range dp.group.cols {
			outputs = append(outputs, lplan.NamedExpr{E: expr.ColOf(gc), As: gc})
		}
		for _, a := range dp.group.aggs {
			outputs = append(outputs, lplan.NamedExpr{E: finalSub[a.Out], As: a.Out})
		}
	}
	return &lplan.GroupBy{
		In:        in,
		GroupCols: dp.group.cols,
		Aggs:      topAggs,
		Having:    having,
		Outputs:   outputs,
		Method:    lplan.AggHash,
	}, nil
}

// bestFinal finalizes every retained candidate of the full set — one per
// aggregation placement and interesting order the search kept — shows each
// complete plan to visit (nil on the Optimize path) and returns the
// cheapest, the first found winning ties.
func (dp *blockDP) bestFinal(visit func(aggMode, *cand)) (*cand, error) {
	cands := dp.best[fullMask(len(dp.rels))]
	if len(cands) == 0 {
		return nil, fmt.Errorf("dp: no plan for the full relation set")
	}
	var best *cand
	bestCost := math.Inf(1)
	for i := range cands {
		fin, err := dp.finalize(&cands[i])
		if err != nil {
			return nil, err
		}
		if visit != nil {
			visit(cands[i].mode, fin)
		}
		if fin.info.Cost < bestCost {
			best, bestCost = fin, fin.info.Cost
		}
	}
	return best, nil
}

// minInvariantMask computes the minimal invariant set over dpRels (which
// may be prebuilt subplans, whose keys derive from lplan.Key).
//
// A relation r is removable from the current set S when:
//
//   - no aggregate argument or grouping column references r;
//   - every conjunct touching r touches only r and S∖{r}, and its columns
//     on the S side are all grouping columns;
//   - the equi-join conjuncts between r and S∖{r} bind a key of r.
//
// Removal repeats to fixpoint. The last relation is never removed (a
// group-by needs an input).
func minInvariantMask(rels []dpRel, conjs []dpConj, group *groupSpec) uint64 {
	if group == nil {
		return 0
	}
	in := fullMask(len(rels))
	pinned := group.argsMask
	grouping := map[schema.ColID]bool{}
	for _, gc := range group.cols {
		grouping[gc] = true
		for _, r := range rels {
			if r.node.Schema().Contains(gc) {
				pinned |= r.mask
			}
		}
	}

	changed := true
	for changed {
		changed = false
		for i := range rels {
			r := &rels[i]
			if in&r.mask == 0 || pinned&r.mask != 0 || bits.OnesCount64(in) <= 1 {
				continue
			}
			if dpRemovable(r, in, conjs, grouping) {
				in &^= r.mask
				changed = true
			}
		}
	}
	return in
}

func dpRemovable(r *dpRel, in uint64, conjs []dpConj, grouping map[schema.ColID]bool) bool {
	key, ok := lplan.Key(r.node)
	if !ok {
		return false
	}
	rSchema := r.node.Schema()
	for _, c := range conjs {
		if c.mask&r.mask == 0 {
			continue
		}
		if c.mask&^in != 0 {
			return false // three-way with an already-removed relation
		}
		for _, col := range expr.Columns(c.e) {
			if rSchema.Contains(col) {
				continue
			}
			if !grouping[col] {
				return false
			}
		}
	}
	return keyBound(key, conjs, in)
}

// keyBound is the key-coverage (foreign-key) rule, stated once for pull-up
// (Definition 1, item 2: a pulled relation's key need not join the grouping
// columns) and for invariant grouping (Section 4.1: a relation may wait until
// after the group-by): the equi-join conjuncts applied within the relation
// set bind every column of key, so each row of the rest of the set meets at
// most one row of the keyed relation.
func keyBound(key schema.Key, conjs []dpConj, within uint64) bool {
	for _, kc := range key {
		bound := false
		for i := range conjs {
			if conjs[i].mask&^within != 0 {
				continue
			}
			if lc, rc, ok := expr.EquiJoin(conjs[i].e); ok && (lc == kc || rc == kc) {
				bound = true
				break
			}
		}
		if !bound {
			return false
		}
	}
	return true
}
