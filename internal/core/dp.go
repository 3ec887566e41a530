package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"aggview/internal/cost"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/transform"
)

// aggMode records what a DP plan has already computed for the block's
// pending group-by.
type aggMode int

const (
	modeNone    aggMode = iota // no aggregation applied yet
	modePartial                // a coalescing pre-aggregate (G2) was applied
	modeFull                   // the block's group-by was applied (invariant placement)
)

func (m aggMode) String() string {
	switch m {
	case modeNone:
		return "none"
	case modePartial:
		return "partial"
	case modeFull:
		return "full"
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
// marks equalities synthesized from equivalence classes (see equiv.go).
type dpConj struct {
	e       expr.Expr
	mask    uint64
	derived bool
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

// cand is one retained plan for a DP state.
type cand struct {
	node lplan.Node
	info *cost.Info
	mode aggMode
}

// blockDP enumerates linear (aggregate) join trees for one block.
type blockDP struct {
	model   *cost.Model
	rels    []dpRel
	conjs   []dpConj
	group   *groupSpec
	outputs []lplan.NamedExpr
	opts    Options
	stats   *SearchStats

	best map[uint64][]*cand
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

// solve fills the DP table bottom-up and returns it.
func (dp *blockDP) solve() (map[uint64][]*cand, error) {
	n := len(dp.rels)
	if n == 0 {
		return nil, fmt.Errorf("dp: block has no relations")
	}
	if n > 62 {
		return nil, fmt.Errorf("dp: too many relations (%d)", n)
	}
	dp.best = map[uint64][]*cand{}

	// Size-1 states.
	for i := range dp.rels {
		info, err := dp.model.Info(dp.rels[i].node)
		if err != nil {
			return nil, err
		}
		if err := tickPlan(dp.stats, dp.opts); err != nil {
			return nil, err
		}
		dp.best[dp.rels[i].mask] = []*cand{{node: dp.rels[i].node, info: info, mode: modeNone}}
		dp.stats.States++
	}

	full := fullMask(n)
	// Process subsets in increasing popcount order.
	for size := 2; size <= n; size++ {
		for s := uint64(1); s <= full; s++ {
			if bits.OnesCount64(s) != size {
				continue
			}
			if err := dp.buildState(s); err != nil {
				return nil, err
			}
		}
	}
	return dp.best, nil
}

// buildState enumerates all ways to form subset s by extending a size-1-
// smaller state with one relation, applying the greedy conservative
// heuristic at each extension.
func (dp *blockDP) buildState(s uint64) error {
	var retained []*cand
	generated := 0
	for i := range dp.rels {
		r := &dp.rels[i]
		if s&r.mask == 0 {
			continue
		}
		prev := s &^ r.mask
		prevCands, ok := dp.best[prev]
		if !ok {
			continue
		}
		newPreds := dp.prunedNewPreds(prev, r.mask)
		for _, c := range prevCands {
			ext, err := dp.extend(c, r, newPreds, s)
			if err != nil {
				return err
			}
			generated += len(ext)
			retained = dp.merge(retained, ext)
		}
	}
	if len(retained) > 0 {
		dp.best[s] = retained
		dp.stats.States++
		dp.opts.Trace.State(bits.OnesCount64(s), generated, len(retained))
	}
	return nil
}

// extend builds the candidate plans for join(plan(prev), r), including the
// greedy conservative early-aggregation alternatives, and applies the
// paper's local choice rule.
func (dp *blockDP) extend(c *cand, r *dpRel, preds []expr.Expr, s uint64) ([]*cand, error) {
	plain, err := dp.joinPlans(c.node, r.node, preds, c.mode)
	if err != nil {
		return nil, err
	}
	if !dp.greedyEnabled() || c.mode != modeNone {
		return plain, nil
	}

	prev := s &^ r.mask
	var aggAlts []*cand

	// (2a) invariant placement: the block's group-by applied on plan(prev).
	if prev&dp.group.minInvariant == dp.group.minInvariant {
		for _, g := range dp.fullGroupVariants(c.node) {
			dp.stats.GroupPlacements++
			alts, err := dp.joinPlans(g, r.node, preds, modeFull)
			if err != nil {
				return nil, err
			}
			aggAlts = append(aggAlts, alts...)
		}
	}
	// (2b) coalescing pre-aggregation of plan(prev). An empty argsMask
	// (COUNT(*) only) pre-aggregates on either side.
	if dp.group.decomposable && dp.group.argsMask&^prev == 0 {
		g2, err := dp.partialGroup(c.node, prev)
		if err == nil {
			dp.stats.GroupPlacements++
			alts, err := dp.joinPlans(g2, r.node, preds, modePartial)
			if err != nil {
				return nil, err
			}
			aggAlts = append(aggAlts, alts...)
		}
	}
	// (2c) early aggregation of the incoming relation r (join the
	// pre-aggregated or fully grouped r instead).
	if r.mask&dp.group.minInvariant == dp.group.minInvariant && dp.group.minInvariant != 0 {
		for _, g := range dp.fullGroupVariants(r.node) {
			dp.stats.GroupPlacements++
			alts, err := dp.joinPlans(c.node, g, preds, modeFull)
			if err != nil {
				return nil, err
			}
			aggAlts = append(aggAlts, alts...)
		}
	}
	if dp.group.decomposable && dp.group.argsMask&^r.mask == 0 {
		g2, err := dp.partialGroup(r.node, r.mask)
		if err == nil {
			dp.stats.GroupPlacements++
			alts, err := dp.joinPlans(c.node, g2, preds, modePartial)
			if err != nil {
				return nil, err
			}
			aggAlts = append(aggAlts, alts...)
		}
	}
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
	if aggBest != nil && aggBest.info.Cost < plainBest.info.Cost && aggBest.info.Width <= plainBest.info.Width {
		dp.opts.Trace.Greedy(lvl, true)
		if dp.opts.Trace != nil {
			dp.opts.Trace.Event("greedy-accept", lvl, "%s: cost %.1f < %.1f, width %dB <= %dB",
				aggBest.node.Describe(), aggBest.info.Cost, plainBest.info.Cost,
				aggBest.info.Width, plainBest.info.Width)
		}
		return append(plain, aggBest), nil
	}
	dp.opts.Trace.Greedy(lvl, false)
	if dp.opts.Trace != nil && aggBest != nil {
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

func cheapest(cs []*cand) *cand {
	var best *cand
	for _, c := range cs {
		if best == nil || c.info.Cost < best.info.Cost {
			best = c
		}
	}
	return best
}

// joinPlans generates the physical join alternatives for L ⋈ R.
func (dp *blockDP) joinPlans(l, r lplan.Node, preds []expr.Expr, mode aggMode) ([]*cand, error) {
	hasEqui := false
	for _, p := range preds {
		lc, rc, ok := expr.EquiJoin(p)
		if !ok {
			continue
		}
		ls := l.Schema()
		if (ls.Contains(lc) && r.Schema().Contains(rc)) || (ls.Contains(rc) && r.Schema().Contains(lc)) {
			hasEqui = true
			break
		}
	}
	methods := []lplan.JoinMethod{lplan.JoinBlockNL}
	if hasEqui {
		if !dp.opts.NoHashJoin {
			methods = append(methods, lplan.JoinHash)
		}
		methods = append(methods, lplan.JoinMerge)
	}
	probe := &lplan.Join{L: l, R: r, Preds: preds, Method: lplan.JoinIndexNL}
	if _, _, ok := cost.IndexNLAccess(probe); ok {
		methods = append(methods, lplan.JoinIndexNL)
	}

	var out []*cand
	for _, m := range methods {
		j := &lplan.Join{L: l, R: r, Preds: preds, Method: m}
		info, err := dp.model.Info(j)
		if err != nil {
			return nil, err
		}
		if err := tickPlan(dp.stats, dp.opts); err != nil {
			return nil, err
		}
		out = append(out, &cand{node: j, info: info, mode: mode})
	}
	return out, nil
}

// fullGroupVariants builds the block's group-by over a subplan with both
// aggregation methods.
func (dp *blockDP) fullGroupVariants(in lplan.Node) []lplan.Node {
	var out []lplan.Node
	for _, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
		out = append(out, &lplan.GroupBy{
			In:        in,
			GroupCols: dp.group.cols,
			Aggs:      dp.group.aggs,
			Having:    dp.group.having,
			Method:    m,
		})
	}
	return out
}

// partialGroup builds the coalescing pre-aggregate G2 over a subplan
// covering the relations in mask: it groups by the block grouping columns
// available plus every column that later conjuncts still need, and
// computes the decomposed partial aggregates.
func (dp *blockDP) partialGroup(in lplan.Node, mask uint64) (lplan.Node, error) {
	s := in.Schema()
	var groupCols []schema.ColID
	seen := map[schema.ColID]bool{}
	add := func(c schema.ColID) {
		if s.Contains(c) && !seen[c] {
			seen[c] = true
			groupCols = append(groupCols, c)
		}
	}
	for _, gc := range dp.group.cols {
		add(gc)
	}
	for _, c := range dp.conjs {
		if c.mask&^mask == 0 {
			continue // fully applied inside the subplan
		}
		if c.mask&mask == 0 {
			continue // does not touch it
		}
		for _, col := range expr.Columns(c.e) {
			add(col)
		}
	}
	if len(groupCols) == 0 {
		return nil, fmt.Errorf("dp: partial aggregate would be scalar before a join")
	}
	var partials []expr.Agg
	for _, a := range dp.group.aggs {
		parts, _, err := a.DecomposeAgg()
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			partials = append(partials, p.Partial)
		}
	}
	return &lplan.GroupBy{In: in, GroupCols: groupCols, Aggs: partials, Method: lplan.AggHash}, nil
}

// merge inserts candidates into the state's retained set, keeping the
// cheapest plan per (interesting order, mode) bucket.
func (dp *blockDP) merge(retained []*cand, add []*cand) []*cand {
	for _, c := range add {
		key := bucketKey(c)
		replaced := false
		dominated := false
		for i, r := range retained {
			if bucketKey(r) != key {
				continue
			}
			if c.info.Cost < r.info.Cost {
				retained[i] = c
				replaced = true
			} else {
				dominated = true
			}
			break
		}
		if !replaced && !dominated {
			retained = append(retained, c)
		}
	}
	return retained
}

func bucketKey(c *cand) string {
	var b strings.Builder
	b.WriteString(c.mode.String())
	b.WriteByte('|')
	for _, o := range c.info.Order {
		b.WriteString(o.String())
		b.WriteByte(',')
	}
	return b.String()
}

// finalize completes a full-set candidate: the pending group-by is applied
// according to the plan's mode, then the block outputs.
func (dp *blockDP) finalize(c *cand) (*cand, error) {
	node := c.node
	if dp.group != nil {
		switch c.mode {
		case modeNone:
			var variants []*cand
			for _, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
				g := &lplan.GroupBy{
					In:        node,
					GroupCols: dp.group.cols,
					Aggs:      dp.group.aggs,
					Having:    dp.group.having,
					Outputs:   dp.outputs,
					Method:    m,
				}
				info, err := dp.model.Info(g)
				if err != nil {
					return nil, err
				}
				if err := tickPlan(dp.stats, dp.opts); err != nil {
					return nil, err
				}
				variants = append(variants, &cand{node: g, info: info, mode: modeFull})

				// Successive group-bys (e.g. a top group-by directly over a
				// pulled-up view) can often be combined into one (paper §3);
				// keep the merged form as an alternative when it applies.
				if merged, err := transform.MergeGroupBys(g); err == nil {
					minfo, err := dp.model.Info(merged)
					if err != nil {
						return nil, err
					}
					if err := tickPlan(dp.stats, dp.opts); err != nil {
						return nil, err
					}
					variants = append(variants, &cand{node: merged, info: minfo, mode: modeFull})
				}
			}
			return cheapest(variants), nil

		case modePartial:
			top, err := dp.coalescingTop(node)
			if err != nil {
				return nil, err
			}
			info, err := dp.model.Info(top)
			if err != nil {
				return nil, err
			}
			if err := tickPlan(dp.stats, dp.opts); err != nil {
				return nil, err
			}
			return &cand{node: top, info: info, mode: modeFull}, nil

		case modeFull:
			// Group-by already applied (without outputs); project them.
			if len(dp.outputs) > 0 {
				p := &lplan.Project{In: node, Items: dp.outputs}
				info, err := dp.model.Info(p)
				if err != nil {
					return nil, err
				}
				return &cand{node: p, info: info, mode: modeFull}, nil
			}
			return c, nil
		}
	}
	// SPJ block: apply outputs.
	if len(dp.outputs) > 0 {
		p := &lplan.Project{In: node, Items: dp.outputs}
		info, err := dp.model.Info(p)
		if err != nil {
			return nil, err
		}
		return &cand{node: p, info: info, mode: c.mode}, nil
	}
	return c, nil
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

// bestFinal finalizes every retained candidate of the full set and returns
// the cheapest complete plan.
func (dp *blockDP) bestFinal() (*cand, error) {
	cands, ok := dp.best[fullMask(len(dp.rels))]
	if !ok {
		return nil, fmt.Errorf("dp: no plan for the full relation set")
	}
	var best *cand
	bestCost := math.Inf(1)
	for _, c := range cands {
		fin, err := dp.finalize(c)
		if err != nil {
			return nil, err
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
	bound := map[schema.ColID]bool{}
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
		if lc, rc, isEqui := expr.EquiJoin(c.e); isEqui {
			if rSchema.Contains(lc) {
				bound[lc] = true
			}
			if rSchema.Contains(rc) {
				bound[rc] = true
			}
		}
	}
	for _, kc := range key {
		if !bound[kc] {
			return false
		}
	}
	return true
}
