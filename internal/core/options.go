// Package core implements the paper's cost-based optimization algorithms
// for queries with aggregate views (Section 5):
//
//   - the traditional two-phase optimizer (Section 5.1) as the baseline:
//     each aggregate view is optimized locally with System-R dynamic
//     programming, then the top block is optimized treating views as base
//     relations, group-bys always last;
//   - the greedy conservative heuristic (Section 5.2, from [CS94]) that
//     extends the DP with early group-by placement — invariant grouping
//     and simple coalescing — choosing the aggregated alternative only
//     when it is cheaper and no wider;
//   - the one-view and multi-view two-phase algorithms (Sections 5.3-5.4)
//     that enumerate pulled-up views Φ(V′, W) for candidate pull sets W,
//     bounded by the paper's practical restrictions (predicate sharing and
//     k-level pull-up).
//
// The chosen plan is guaranteed to be no worse (under the cost model) than
// the traditional optimizer's, because the search space always contains
// the traditional strategy and greedy replacements are dominance-guarded.
package core

import (
	"fmt"

	"aggview/internal/lplan"
)

// Mode selects the enumeration algorithm.
type Mode int

// Optimizer modes.
const (
	// ModeDefault is the zero value: it resolves to the package default
	// (ModeFull with the paper's practical restrictions) at the engine and
	// Optimize entry points. Keeping an explicit default constant lets a
	// caller request ModeTraditional literally instead of colliding with
	// the zero value.
	ModeDefault Mode = iota
	// ModeTraditional optimizes each view locally and joins results with
	// group-bys last (Section 5.1). The baseline every experiment
	// compares against.
	ModeTraditional
	// ModePushDown adds the greedy conservative heuristic (early
	// group-by placement) but never reorders across query blocks.
	ModePushDown
	// ModeFull adds the pull-up transformation: relations may be pulled
	// through aggregate views, enabling cross-block reordering
	// (Sections 5.3-5.4).
	ModeFull
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeDefault:
		return "default"
	case ModeTraditional:
		return "traditional"
	case ModePushDown:
		return "push-down"
	case ModeFull:
		return "full"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures the optimizer.
type Options struct {
	Mode Mode

	// KLevelPullUp caps how many relations may be pulled through one view
	// (the paper's k-level pull-up restriction, Section 5.3). Zero means
	// unlimited.
	KLevelPullUp int

	// RequireSharedPredicate restricts pull-up candidates to relations
	// that share a predicate with the view ("we do not pull-up a relation
	// through a view unless they share a predicate", Section 5.3).
	RequireSharedPredicate bool

	// PoolPages is the buffer budget the cost model assumes; non-positive
	// uses the storage default.
	PoolPages int

	// CPUWeight is the per-tuple cost in page-IO units (0 = IO only).
	CPUWeight float64

	// NoHashJoin restricts joins to the System-R repertoire (block nested
	// loops and sort-merge). The paper's era optimizers
	// ([SAC+79]-style, as in [CS94]'s evaluation) had no hash joins; in
	// that regime early aggregation pays off far more often, because a
	// group-by that fits in memory replaces an external sort of its input.
	NoHashJoin bool

	// Tick, when non-nil, is invoked once per costed candidate plan. A
	// non-nil return aborts enumeration with that error. The engine wires
	// it to the per-query governor, making it both the optimizer's search
	// budget (govern.ErrOptimizerBudget after N plans) and its cancellation
	// poll; the degradation ladder catches the budget error and retries in
	// a cheaper mode.
	Tick func() error

	// Trace, when non-nil, records the optimizer's search decisions: per-
	// level pruning counts, greedy accept/reject outcomes with reasons, and
	// the pull-up candidates enumerated. Tracing is for EXPLAIN output and
	// tests; it is off (nil) on the normal query path.
	Trace *SearchTrace

	// ViewPlans are materialized-view-backed plan alternatives for the
	// whole query, built by the engine's rewrite layer before the search
	// runs. Each candidate competes on cost against the best base-table
	// plan and wins only when strictly cheaper; the winner's name is
	// reported in Plan.ViewRewrite.
	ViewPlans []ViewPlan
}

// ViewPlan is one materialized-view-backed alternative: a complete plan
// answering the query from the view's backing table.
type ViewPlan struct {
	Name string // view name, surfaced as plan provenance
	Root lplan.Node
}

// DefaultOptions returns the full algorithm with the paper's practical
// restrictions enabled (k=2, predicate sharing).
func DefaultOptions() Options {
	return Options{
		Mode:                   ModeFull,
		KLevelPullUp:           2,
		RequireSharedPredicate: true,
	}
}

// SearchStats counts enumeration effort, for the search-space experiments
// (E8, E9).
type SearchStats struct {
	// States is the number of dynamic-programming states (subsets with at
	// least one retained plan).
	States int
	// PlansConsidered counts every candidate plan costed (join method ×
	// group-by placement alternatives).
	PlansConsidered int
	// GroupPlacements counts early group-by candidates generated by the
	// greedy conservative heuristic.
	GroupPlacements int
	// PullUpCandidates counts the Φ(V′, W) alternatives enumerated.
	PullUpCandidates int
	// Phase2Runs counts top-block optimizations (one per W combination).
	Phase2Runs int
	// Degradations counts how many times the engine's ladder fell back to
	// a cheaper mode after the search budget tripped (0 = the requested
	// mode succeeded).
	Degradations int
}

// Add accumulates another run's counters.
func (s *SearchStats) Add(o SearchStats) {
	s.States += o.States
	s.PlansConsidered += o.PlansConsidered
	s.GroupPlacements += o.GroupPlacements
	s.PullUpCandidates += o.PullUpCandidates
	s.Phase2Runs += o.Phase2Runs
	s.Degradations += o.Degradations
}

// String renders the counters.
func (s SearchStats) String() string {
	out := fmt.Sprintf("states=%d plans=%d placements=%d pullups=%d phase2=%d",
		s.States, s.PlansConsidered, s.GroupPlacements, s.PullUpCandidates, s.Phase2Runs)
	if s.Degradations > 0 {
		out += fmt.Sprintf(" degradations=%d", s.Degradations)
	}
	return out
}

// tickPlan counts one costed candidate plan and polls the enumeration hook;
// a non-nil return aborts the search.
func tickPlan(stats *SearchStats, opts Options) error {
	stats.PlansConsidered++
	if opts.Tick != nil {
		return opts.Tick()
	}
	return nil
}
