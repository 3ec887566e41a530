package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"aggview/internal/arena"
	"aggview/internal/cost"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/stats"
	"aggview/internal/types"
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
// (an optimized aggregate view, a pulled-up Φ(V′, W), or the plan of an
// outer-join block up to a RIGHT or FULL step). In an outer-join block a
// relation joins only a plan holding every relation in req; one an outer
// step joins (typ LEFT or FULL) is always the right input, padded, under
// exactly its ON conjuncts.
type dpRel struct {
	alias string
	node  lplan.Node
	mask  uint64
	typ   lplan.JoinType
	req   uint64
	on    []*dpConj
}

// dpConj is a conjunct annotated with the relations it touches. derived
// marks equalities synthesized from equivalence classes (see equiv.go). For
// a bare column equality, eq is set, a, b are its columns' ordinals in the
// cost model's column index and am, bm the relations providing them, which
// orient it at every join step.
type dpConj struct {
	e       expr.Expr
	mask    uint64
	derived bool
	eq      bool
	a, b    int
	am, bm  uint64
}

// newConj annotates a conjunct over the relations aliases lists,
// resolving a bare equality's columns.
func newConj(e expr.Expr, mask uint64, cols *stats.ColIndex, aliases aliasMasks) dpConj {
	c := dpConj{e: e, mask: mask}
	if a, b, ok := bareEquality(e); ok {
		c.eq, c.a, c.b = true, cols.Ord(a), cols.Ord(b)
		c.am, _ = aliases.of(a.Rel)
		c.bm, _ = aliases.of(b.Rel)
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
// method, with an early group-by on one input as place says; an inner hash
// join builds on rels[rel] unless flip says it builds on left. Candidates
// live by value in a scratch buffer; only the ones a state retains are
// copied into the per-query arena.
type entry struct {
	info   cost.Info
	order  int32 // info.Order interned in the DP's order table
	mode   aggMode
	method lplan.JoinMethod
	place  placement
	flip   bool      // the hash join builds on left: node emits Join{L: r, R: l}
	rel    int32     // the incoming relation
	left   *entry    // nil for a leaf
	step   *joinStep // nil for a leaf
	mask   uint64    // relations joined
	early  *earlyAgg // the pending group-by costed over this plan, on first need
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
	fullGroups   float64 // the groups each forms, by the model
	partGroups   float64
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
// steps and their descriptions, the early-aggregation records and the cost
// model's column statistics are carved from slabs recycled across queries,
// and the candidate scratch buffers are reused across states.
type memo struct {
	stats    *stats.Arena // the cost model's statistics
	entries  arena.Slab[entry]
	early    arena.Slab[earlyAgg]
	steps    arena.Slab[joinStep]
	preds    arena.Slab[expr.Expr]
	jpreds   arena.Slab[cost.JoinPred]
	keys     arena.Slab[schema.ColID]
	best     map[uint64][]entry // the state table of the DP being solved
	cands    []entry            // candidates of the extension being costed
	retained []entry            // retained set of the state being built
	schema   schema.Schema      // the columns of the DP being solved
	orders   [][]schema.ColID   // the interned orders of the DP being solved
}

// maxPooledMemoBytes keeps a memo grown by one huge search from being
// pinned by the pool.
const maxPooledMemoBytes = 8 << 20

var memoPool = sync.Pool{New: func() any {
	return &memo{stats: stats.NewArena(), best: map[uint64][]entry{}}
}}

// spareMemo holds one released memo outside memoPool, which every other
// collection empties: a search that follows a collection then reuses its
// slabs instead of growing them anew.
var spareMemo atomic.Pointer[memo]

// getMemo returns a memo to search in: the spare, or one from the pool.
func getMemo() *memo {
	if m := spareMemo.Swap(nil); m != nil {
		return m
	}
	return memoPool.Get().(*memo)
}

// release zeroes the memo's slabs and recycles it. Nothing carved from it
// may be used afterwards: plans leave the search as lplan trees and
// detached numbers.
func (m *memo) release() {
	if m.stats.Bytes()+m.entries.Bytes()+m.early.Bytes()+m.steps.Bytes()+m.preds.Bytes()+
		m.jpreds.Bytes()+m.keys.Bytes() > maxPooledMemoBytes {
		return
	}
	m.stats.Reset()
	m.entries.Reset()
	m.early.Reset()
	m.steps.Reset()
	m.preds.Reset()
	m.jpreds.Reset()
	m.keys.Reset()
	clear(m.best)
	clear(m.cands[:cap(m.cands)])
	clear(m.retained[:cap(m.retained)])
	clear(m.schema[:cap(m.schema)])
	clear(m.orders[:cap(m.orders)])
	if !spareMemo.CompareAndSwap(nil, m) {
		memoPool.Put(m)
	}
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

	// trailing holds the relations an outer step joins or that wait for
	// another (req): none starts a plan. It is 0 without outer joins.
	trailing uint64

	// reads lists the relation sets whose plans are read once the DP is
	// solved (phase one's V′ ∪ W); nil stands for the full set alone. The
	// search builds no state outside them and keeps a plan for each (linked).
	reads []uint64

	best map[uint64][]entry // the state table: retained plans per relation set

	// orders are the interned output orders, index 0 "unordered"; schema
	// is every column of every relation. Both live in the memo until the
	// next DP's prepare.
	orders  [][]schema.ColID
	schema  schema.Schema
	aliases aliasMasks // the relations providing each alias

	// The block's group-by and outputs, described once (describeGroup): the
	// group-by without input, by hash and by sort, placed early (fullTmpl,
	// no outputs) or last (lastTmpl, with them); the output projection over
	// a plan already grouped or without a group-by (outWidth); and, when the
	// aggregates decompose, the coalescing pre-aggregate's partial
	// aggregates and the top that coalesces them (coalTmpl).
	fullTmpl, lastTmpl   [2]*lplan.GroupBy
	fullWidth, lastWidth int
	outWidth             int
	partialAggs          []expr.Agg
	partialAggsWidth     int // the partial aggregates' share of a pre-aggregate's width
	coalTmpl             *lplan.GroupBy
	coalWidth            int
	// merged, when the full set is one relation whose node is a group-by, is
	// the group-by last merged with it (mergeGroupBys), by hash and by sort.
	merged [2]*lplan.GroupBy

	conjCols [][]schema.ColID        // the columns of each conjunct, on partialSpecOf's first need
	partials map[uint64]*partialSpec // per relation set, on first need

	dsu     colDSU // prunedNewPreds' scratch
	conjBuf []*dpConj
}

// greedyEnabled reports whether early group-by placement is allowed.
func (dp *blockDP) greedyEnabled() bool {
	return dp.group != nil && dp.opts.Mode != ModeTraditional
}

func fullMask(n int) uint64 { return (uint64(1) << n) - 1 }

// aliasMask is one alias appearing in the DP relations' output schemas
// and the relations providing it. A prebuilt subplan (e.g. a pulled-up Φ)
// may provide several aliases.
type aliasMask struct {
	alias string
	mask  uint64
}

// aliasMasks lists every alias appearing in a DP relation's output schema,
// each once: a block has a few, so a list beats a map.
type aliasMasks []aliasMask

// newAliasMasks lists the aliases of rels' output schemas.
func newAliasMasks(rels []dpRel) aliasMasks {
	var out aliasMasks
	for _, r := range rels {
		for _, c := range r.node.Schema() {
			if i := out.index(c.ID.Rel); i >= 0 {
				out[i].mask |= r.mask
			} else {
				out = append(out, aliasMask{c.ID.Rel, r.mask})
			}
		}
	}
	return out
}

func (a aliasMasks) index(alias string) int {
	for i := len(a) - 1; i >= 0; i-- { // a schema's columns come alias by alias
		if a[i].alias == alias {
			return i
		}
	}
	return -1
}

// of returns the relations providing alias; ok is false when none does.
func (a aliasMasks) of(alias string) (mask uint64, ok bool) {
	if i := a.index(alias); i >= 0 {
		return a[i].mask, true
	}
	return 0, false
}

// maskOfExpr returns the mask of DP relations an expression touches.
func maskOfExpr(e expr.Expr, aliases aliasMasks) (uint64, error) {
	var buf expr.ColumnBuf
	var m uint64
	for _, c := range expr.AppendColumns(buf[:0], e) {
		bit, ok := aliases.of(c.Rel)
		if !ok {
			return 0, fmt.Errorf("dp: expression %s references unknown relation %q", e, c.Rel)
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
	dp.mem.orders = dp.orders
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
	if err := dp.prepare(); err != nil {
		return err
	}
	if err := dp.addLeaves(); err != nil {
		return err
	}
	return dp.join()
}

// prepare describes the DP's relations and group-by once, before any state.
func (dp *blockDP) prepare() error {
	n := len(dp.rels)
	if n == 0 {
		return fmt.Errorf("dp: block has no relations")
	}
	if n > 62 {
		return fmt.Errorf("dp: too many relations (%d)", n)
	}
	// The DPs of one search run one after another, each done with its table
	// before the next starts, so they share the memo's.
	dp.best = dp.mem.best
	clear(dp.best)
	dp.orders = append(dp.mem.orders[:0], nil)
	dp.schema = dp.mem.schema[:0]
	for _, r := range dp.rels {
		dp.schema = append(dp.schema, r.node.Schema()...)
	}
	dp.mem.schema = dp.schema
	if dp.group != nil {
		dp.describeGroup()
	} else {
		dp.outWidth = itemsWidth(dp.outputs, dp.schema)
	}
	return nil
}

// addLeaves fills the size-1 states.
func (dp *blockDP) addLeaves() error {
	for i := range dp.rels {
		r := &dp.rels[i]
		info, err := dp.model.Info(r.node)
		if err != nil {
			return err
		}
		if err := tickPlan(dp.stats, dp.opts); err != nil {
			return err
		}
		leaf := entry{info: *info, order: dp.internOrder(info.Order), rel: int32(i), mask: r.mask}
		dp.setBest(r.mask, []entry{leaf})
		dp.stats.States++
	}
	return nil
}

// join fills the states of two relations and more, in increasing popcount
// order, each level's masks in increasing order.
func (dp *blockDP) join() error {
	full := fullMask(len(dp.rels))
	for size := 2; size <= len(dp.rels); size++ {
		for s := fullMask(size); s <= full; s = nextOfSize(s) {
			if err := dp.buildState(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// boundSlack shrinks a lower bound that may be inexact before it is
// compared with the bound. The bound adds the same non-negative costs as
// the plans it stands for, in another order; float addition is monotone,
// so a plan costs at least the sum of its parts taken in its own order,
// but sums in two orders may differ by a few ulps. Sums of whole numbers
// below 2⁵³ are exact in any order, so a bound over whole costs — page
// counts, as the model charges without a per-tuple weight — is compared
// as it is, ties included.
const boundSlack = 1e-12

// whole reports whether x is a whole number that float64 adds exactly.
func whole(x float64) bool { return x == math.Trunc(x) && x < 1<<53 }

// leavesLose reports whether no complete plan of the DP, its leaves
// costed, can beat bound, the cost of a complete plan the search already
// holds (+Inf: none yet). Every cost the model charges is non-negative and
// every plan's cost contains its inputs', so a complete plan costs at least
// the sum of its leaves; the bound's plan wins a tie, as the search keeps
// the first of equal costs. A one-relation DP never loses: its final may
// merge two group-bys into one cheaper than its leaf (mergeGroupBys). An
// outer-join block's top DP is one relation (topDP).
func (dp *blockDP) leavesLose(bound float64) bool {
	if len(dp.rels) == 1 || math.IsInf(bound, 1) {
		return false
	}
	var lb float64
	exact := true
	for i := range dp.rels {
		c := dp.best[dp.rels[i].mask][0].info.Cost
		lb += c
		exact = exact && whole(c)
	}
	if !exact || !whole(lb) {
		lb *= 1 - boundSlack
	}
	return lb >= bound
}

// describeGroup describes the block's pending group-by and outputs once per
// DP, for every placement the search costs and every finalist it completes.
func (dp *blockDP) describeGroup() {
	g := dp.group
	for i, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
		dp.fullTmpl[i] = &lplan.GroupBy{GroupCols: g.cols, Aggs: g.aggs, Having: g.having, Method: m}
		dp.lastTmpl[i] = &lplan.GroupBy{GroupCols: g.cols, Aggs: g.aggs, Having: g.having, Outputs: dp.outputs, Method: m}
	}
	grouped := dp.fullTmpl[0].SchemaOver(dp.schema)
	dp.fullWidth = grouped.AvgWidth()
	dp.lastWidth = dp.lastTmpl[0].SchemaOver(dp.schema).AvgWidth()
	// An eager plan carries the aggregates' outputs beside the relations'
	// columns (the grouping columns among them).
	dp.outWidth = itemsWidth(dp.outputs, slices.Concat(dp.schema, grouped[len(g.cols):]))
	if len(dp.rels) == 1 {
		if _, ok := dp.rels[0].node.(*lplan.GroupBy); ok {
			// Successive group-bys (e.g. a top group-by directly over a
			// pulled-up view) can often be combined into one (paper §3);
			// the merged form competes as a finalist when it applies.
			for i, tmpl := range dp.lastTmpl {
				if m, err := mergeGroupBys(withInput(tmpl, dp.rels[0].node, 0)); err == nil {
					dp.merged[i] = m
				}
			}
		}
	}

	// Coalescing (Section 4.2): the pre-aggregate computes each aggregate's
	// partials; the top coalesces them and rebuilds the aggregate values
	// for Having and the outputs. An aggregate that does not decompose
	// leaves partialAggs nil: no pre-aggregate applies.
	var partials, topAggs []expr.Agg
	finalSub := map[schema.ColID]expr.Expr{}
	for _, a := range g.aggs {
		parts, finalE, err := a.DecomposeAgg()
		if err != nil {
			return
		}
		for _, p := range parts {
			partials = append(partials, p.Partial)
			topAggs = append(topAggs, expr.Agg{Kind: p.Coalesce, Arg: expr.ColOf(p.Partial.Out), Out: p.Partial.Out})
		}
		finalSub[a.Out] = finalE
	}
	having := make([]expr.Expr, len(g.having))
	for i, h := range g.having {
		having[i] = expr.Substitute(h, finalSub)
	}
	var outputs []lplan.NamedExpr
	if len(dp.outputs) > 0 {
		outputs = make([]lplan.NamedExpr, len(dp.outputs))
		for i, ne := range dp.outputs {
			outputs[i] = lplan.NamedExpr{E: expr.Substitute(ne.E, finalSub), As: ne.As}
		}
	} else {
		for _, gc := range g.cols {
			outputs = append(outputs, lplan.NamedExpr{E: expr.ColOf(gc), As: gc})
		}
		for _, a := range g.aggs {
			outputs = append(outputs, lplan.NamedExpr{E: finalSub[a.Out], As: a.Out})
		}
	}
	dp.coalTmpl = &lplan.GroupBy{GroupCols: g.cols, Aggs: topAggs, Having: having, Outputs: outputs, Method: lplan.AggHash}
	// A plan holding a pre-aggregate carries its partial columns beside the
	// relations' columns it keeps.
	withPartials := slices.Clone(dp.schema)
	for _, p := range partials {
		k := p.ResultType(dp.schema)
		withPartials = append(withPartials, schema.Column{ID: p.Out, Type: k})
		dp.partialAggsWidth += k.Width()
	}
	dp.coalWidth = dp.coalTmpl.SchemaOver(withPartials).AvgWidth()
	dp.partialAggs = partials
}

// itemsWidth is the output tuple width of computing items over an input
// with the given schema, as a Project's schema accounts it.
func itemsWidth(items []lplan.NamedExpr, in schema.Schema) int {
	w := emptyTupleWidth
	for _, ne := range items {
		w += ne.E.Type(in).Width()
	}
	return w
}

// colWidth is the width a group-by's schema accounts for a grouping column
// resolved against in (a null placeholder when it does not resolve).
func colWidth(in schema.Schema, c schema.ColID) int {
	if i, err := in.IndexOf(c); err == nil && i >= 0 {
		return in[i].Type.Width()
	}
	return types.KindNull.Width()
}

// buildState enumerates the ways to form subset s by extending a size-1-
// smaller state with one relation linked to it, applying the greedy
// conservative heuristic at each extension. A state no read state holds is
// not built.
func (dp *blockDP) buildState(s uint64) error {
	if !dp.feeds(s) {
		return nil
	}
	retained := dp.mem.retained[:0]
	generated := 0
	for i := range dp.rels {
		r := &dp.rels[i]
		if s&r.mask == 0 {
			continue
		}
		prev := s &^ r.mask
		// Outer-join precedence: r waits for the relations it requires, and
		// a trailing relation's leaf is never the left input.
		if prev&r.req != r.req || prev&^dp.trailing == 0 || !dp.linked(prev, r.mask, s) {
			continue
		}
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

// feeds reports whether a state the DP's plans are read from holds s.
func (dp *blockDP) feeds(s uint64) bool {
	if dp.reads == nil {
		return true
	}
	return slices.ContainsFunc(dp.reads, func(t uint64) bool { return s&^t == 0 })
}

// joins reports whether a conjunct of the DP touches both relation sets.
func (dp *blockDP) joins(a, b uint64) bool {
	for i := range dp.conjs {
		if m := dp.conjs[i].mask; m&a != 0 && m&b != 0 {
			return true
		}
	}
	return false
}

// linked reports whether the DP extends prev by the relations r into s: a
// conjunct touches both, or the conjunct graph leaves no other way, as a
// state read holds s and no conjunct links prev with the rest of it. Then
// prev is whole components of that state, and a cross product is the only
// way on; so every state read keeps a plan (in a left-deep order that
// completes each component before starting the next), and no other state
// pays for a cross product. An outer-join block's DP extends by every
// relation its steps allow.
func (dp *blockDP) linked(prev, r, s uint64) bool {
	if dp.trailing != 0 || dp.joins(prev, r) {
		return true
	}
	if dp.reads == nil {
		return !dp.joins(prev, fullMask(len(dp.rels))&^prev)
	}
	return slices.ContainsFunc(dp.reads, func(t uint64) bool { return s&^t == 0 && !dp.joins(prev, t&^prev) })
}

// newStep describes the join of plan(prev) with r: the conjuncts it applies
// (an outer step's ON, or the pool's new ones) and the physical methods
// open to it. Everything is carved from the memo; an equality is a key when
// its columns come one from each input.
func (dp *blockDP) newStep(prev uint64, r *dpRel) *joinStep {
	st := dp.mem.steps.New()
	applied := r.on
	if r.typ == lplan.JoinInner {
		applied = dp.prunedNewPreds(prev, r.mask)
	}
	st.preds = dp.mem.preds.Alloc(len(applied))
	preds := dp.mem.jpreds.Alloc(len(applied))
	for i, c := range applied {
		st.preds[i] = c.e
		preds[i] = cost.JoinPred{E: c.e, Equi: c.eq, L: c.a, R: c.b}
		switch {
		case !c.eq:
		case c.am&prev != 0 && c.bm&r.mask != 0:
			preds[i].Key = cost.KeyL
		case c.bm&prev != 0 && c.am&r.mask != 0:
			preds[i].Key = cost.KeyR
		}
	}
	st.spec = cost.NewJoinSpec(r.typ, preds, r.node, dp.mem.keys.Alloc(2*len(applied)))
	add := func(m lplan.JoinMethod) {
		st.methods[st.nMethods] = m
		st.nMethods++
	}
	add(lplan.JoinBlockNL)
	if len(st.spec.LCols) > 0 {
		if !dp.opts.NoHashJoin {
			add(lplan.JoinHash)
		}
		if r.typ == lplan.JoinInner { // a merge join cannot pad
			add(lplan.JoinMerge)
		}
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
//
// An inner hash join may build on either input: both are costed and the
// cheaper kept, a tie going to the build on fewer pages, then to r. That is
// a choice within the one candidate (flip), not a second one. An outer hash
// join builds on r as the step is written.
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
		base.method, base.flip = m, false
		if m == lplan.JoinHash && spec.Type == lplan.JoinInner {
			flipped, _, err := dp.model.JoinMethodCost(m, spec, r, l)
			if err != nil {
				return err
			}
			if flipped < extra || flipped == extra && l.Pages < r.Pages {
				extra, base.flip = flipped, true
			}
		}
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
	ea.fullGroups, ea.hasFull = groups, true
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
	ea.partial[0], ea.partGroups, ea.hasPartial = info, groups, true
	return ea, nil
}

// partialSpecOf describes the coalescing pre-aggregate G2 over a subplan
// (in no aggregation mode) covering the relations in mask: it groups by the
// block grouping columns available plus every column that later conjuncts
// still need, and computes the partial aggregates describeGroup decomposed.
// The description depends on the relation set alone, so it is built once.
func (dp *blockDP) partialSpecOf(mask uint64) *partialSpec {
	if ps := dp.partials[mask]; ps != nil {
		return ps
	}
	if dp.partials == nil {
		dp.partials = map[uint64]*partialSpec{}
		dp.conjCols = make([][]schema.ColID, len(dp.conjs))
		var cols []schema.ColID
		for i, c := range dp.conjs {
			n := len(cols)
			cols = expr.AppendColumns(cols, c.e)
			dp.conjCols[i] = cols[n:len(cols):len(cols)]
		}
	}
	ps := &partialSpec{}
	dp.partials[mask] = ps
	var groupCols []schema.ColID
	add := func(c schema.ColID) {
		if m, _ := dp.aliases.of(c.Rel); m&mask != 0 && !slices.Contains(groupCols, c) {
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
	if len(groupCols) == 0 || dp.coalTmpl == nil {
		return ps // scalar before a join, or the aggregates do not decompose
	}
	ps.tmpl = &lplan.GroupBy{GroupCols: groupCols, Aggs: dp.partialAggs, Method: lplan.AggHash}
	ps.width = emptyTupleWidth + dp.partialAggsWidth
	for _, c := range groupCols {
		ps.width += colWidth(dp.schema, c)
	}
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

// node builds the tree the entry's back-pointers describe.
func (dp *blockDP) node(e *entry) lplan.Node {
	if e.left == nil {
		return dp.rels[e.rel].node
	}
	l, r := dp.node(e.left), dp.rels[e.rel].node
	rearly := func() *earlyAgg { return dp.best[dp.rels[e.rel].mask][0].early }
	switch e.place {
	case placeLeftHash, placeLeftSort:
		l = withInput(dp.fullTmpl[e.place-placeLeftHash], l, e.left.early.fullGroups)
	case placeLeftPartial:
		l = withInput(dp.partialSpecOf(e.left.mask).tmpl, l, e.left.early.partGroups)
	case placeRightHash, placeRightSort:
		r = withInput(dp.fullTmpl[e.place-placeRightHash], r, rearly().fullGroups)
	case placeRightPartial:
		r = withInput(dp.partialSpecOf(dp.rels[e.rel].mask).tmpl, r, rearly().partGroups)
	}
	if e.flip {
		l, r = r, l
	}
	return &lplan.Join{L: l, R: r, Type: e.step.spec.Type, Preds: slices.Clone(e.step.preds), Method: e.method}
}

// withInput attaches an input to a group-by described without one, with
// the model's estimate of the groups it forms.
func withInput(tmpl *lplan.GroupBy, in lplan.Node, groups float64) *lplan.GroupBy {
	return &lplan.GroupBy{
		In:        in,
		GroupCols: tmpl.GroupCols,
		Aggs:      tmpl.Aggs,
		Having:    tmpl.Having,
		Outputs:   tmpl.Outputs,
		Method:    tmpl.Method,
		Groups:    groups,
	}
}

// final is a complete plan for the block, costed through the kernels: a
// full-set entry with, on top, the group-by tmpl describes (the block's
// group-by last, or the coalescing top), the block's outputs (project) or
// nothing; or, when merged is set, the merged group-by mergeGroupBys built
// over the block's one relation. Only a plan that is handed on becomes a
// tree (finalTree).
type final struct {
	e       *entry
	tmpl    *lplan.GroupBy
	groups  float64 // the groups tmpl forms, by the model
	project bool
	merged  *lplan.GroupBy
	info    cost.Info
}

// finalOf completes a full-set entry according to its mode — the pending
// group-by (if any) applied, then the block outputs — keeping the cheapest
// completion, the first found winning ties.
func (dp *blockDP) finalOf(c *entry) (final, error) {
	switch {
	case dp.group != nil && c.mode == modeNone:
		var best final
		consider := func(f final) error {
			if err := tickPlan(dp.stats, dp.opts); err != nil {
				return err
			}
			if best.e == nil || f.info.Cost < best.info.Cost {
				best = f
			}
			return nil
		}
		props, groups := dp.model.GroupProps(&c.info, dp.lastTmpl[0], dp.lastWidth)
		for i, tmpl := range dp.lastTmpl {
			info, err := dp.groupOver(&c.info, tmpl, props, groups)
			if err != nil {
				return final{}, err
			}
			if err := consider(final{e: c, tmpl: tmpl, groups: groups, info: info}); err != nil {
				return final{}, err
			}
			if dp.merged[i] == nil {
				continue
			}
			merged, err := dp.model.Info(dp.merged[i])
			if err != nil {
				return final{}, err
			}
			if err := consider(final{e: c, merged: dp.merged[i], info: *merged}); err != nil {
				return final{}, err
			}
		}
		return best, nil

	case dp.group != nil && c.mode == modePartial:
		props, groups := dp.model.GroupProps(&c.info, dp.coalTmpl, dp.coalWidth)
		info, err := dp.groupOver(&c.info, dp.coalTmpl, props, groups)
		if err != nil {
			return final{}, err
		}
		if err := tickPlan(dp.stats, dp.opts); err != nil {
			return final{}, err
		}
		return final{e: c, tmpl: dp.coalTmpl, groups: groups, info: info}, nil

	case len(dp.outputs) > 0: // no group-by, or it was applied eagerly
		return final{e: c, project: true, info: dp.model.ProjectInfo(&c.info, dp.outputs, dp.outWidth)}, nil
	}
	return final{e: c, info: c.info}, nil
}

// finalTree builds the plan tree of a finalist.
func (dp *blockDP) finalTree(f *final) lplan.Node {
	switch {
	case f.merged != nil:
		return f.merged
	case f.tmpl != nil:
		return withInput(f.tmpl, dp.node(f.e), f.groups)
	case f.project:
		return &lplan.Project{In: dp.node(f.e), Items: dp.outputs}
	}
	return dp.node(f.e)
}

// bestFinal completes every retained candidate of the full set — one per
// aggregation placement and interesting order the search kept — shows each
// complete plan to visit (nil on the Optimize path) and returns the
// cheapest, the first found winning ties. Only the plans visit is shown and
// the winner become trees.
func (dp *blockDP) bestFinal(visit func(aggMode, lplan.Node, cost.Info)) (lplan.Node, *cost.Info, error) {
	cands := dp.best[fullMask(len(dp.rels))]
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("dp: no plan for the full relation set")
	}
	var best final
	bestCost := math.Inf(1)
	for i := range cands {
		f, err := dp.finalOf(&cands[i])
		if err != nil {
			return nil, nil, err
		}
		if visit != nil {
			visit(cands[i].mode, dp.finalTree(&f), f.info)
		}
		if f.info.Cost < bestCost {
			best, bestCost = f, f.info.Cost
		}
	}
	if best.e == nil {
		return nil, nil, fmt.Errorf("dp: no finite-cost plan for the full relation set")
	}
	info := best.info
	return dp.finalTree(&best), &info, nil
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
		var buf expr.ColumnBuf
		for _, col := range expr.AppendColumns(buf[:0], c.e) {
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

// keyBound is the key-coverage rule (the paper's foreign-key join, read off
// the equi-joins: no declared foreign key is consulted), stated once for
// pull-up (Definition 1, item 2: a pulled relation's key need not join the
// grouping columns) and for invariant grouping (Section 4.1: a relation may
// wait until after the group-by): the equi-join conjuncts applied within the
// relation set bind every column of key, so each row of the rest of the set
// meets at most one row of the keyed relation.
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
