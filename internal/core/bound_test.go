package core

import (
	"fmt"
	"math"
	"testing"

	"aggview/internal/cost"
)

// TestBoundKeepsTheChoice is the combination skip's contract: it changes
// what the search costs, never what it chooses. Over every golden query ×
// mode × join repertoire × pool, once with page IO alone and once with a
// per-tuple price, Optimize (which skips a W combination whose leaves alone
// lose) hands out the first cheapest plan Alternatives (which skips none)
// finalizes: same tree, same cost bits, and costs no more plans.
func TestBoundKeepsTheChoice(t *testing.T) {
	fewer := 0
	for _, g := range goldenGroups(t) {
		for _, c := range g.cases {
			q := bindGolden(t, g.cat, c.sql)
			for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
				for _, noHash := range []bool{false, true} {
					for _, pool := range []int{8, 256} {
						for _, w := range []float64{0, 0.01} {
							opts := DefaultOptions()
							opts.Mode, opts.NoHashJoin, opts.PoolPages, opts.CPUWeight = mode, noHash, pool, w
							t.Run(fmt.Sprintf("%s/%v/nohash=%v/pool=%d/cpu=%v", c.name, mode, noHash, pool, w), func(t *testing.T) {
								alts, stats, err := Alternatives(q, opts)
								if err != nil {
									t.Fatal(err)
								}
								plans := checkChosen(t, q, opts, alts).Stats.PlansConsidered
								if plans > stats.PlansConsidered {
									t.Fatalf("Optimize costs %d plans, Alternatives %d", plans, stats.PlansConsidered)
								}
								if plans < stats.PlansConsidered {
									fewer++
								}
							})
						}
					}
				}
			}
		}
	}
	if fewer == 0 {
		t.Fatal("Optimize costs as many plans as Alternatives in every case: the skip is vacuous")
	}
}

// TestCPUWeightMustBeFiniteNonNegative: the bound is sound only while every
// cost the model charges is non-negative, so a negative, NaN or infinite
// per-tuple weight is refused rather than searched.
func TestCPUWeightMustBeFiniteNonNegative(t *testing.T) {
	g := goldenGroups(t)[0]
	q := bindGolden(t, g.cat, g.cases[0].sql)
	opts := DefaultOptions()
	for _, w := range []float64{-0.01, math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts.CPUWeight = w
		if _, err := Optimize(q, opts); err == nil {
			t.Errorf("Optimize accepted CPUWeight %v", w)
		}
		if _, _, err := Alternatives(q, opts); err == nil {
			t.Errorf("Alternatives accepted CPUWeight %v", w)
		}
	}
	opts.CPUWeight = 0.01
	if _, err := Optimize(q, opts); err != nil {
		t.Errorf("CPUWeight 0.01: %v", err)
	}
}

// TestLeavesLoseTieRule pins the combination skip's comparison: a sum of
// whole leaf costs is compared as it is, so an exact tie is skipped (the
// earlier plan wins it); any other sum is shrunk by boundSlack first, so a
// near tie is searched; a one-relation DP and a search without a plan yet
// are never skipped.
func TestLeavesLoseTieRule(t *testing.T) {
	for _, c := range []struct {
		leaves []float64
		bound  float64
		lose   bool
	}{
		{[]float64{3, 4}, 7, true},                       // whole sum, exact tie
		{[]float64{3, 4}, 8, false},                      // whole sum below the bound
		{[]float64{3, 4}, 6, true},                       // whole sum above the bound
		{[]float64{3, 4}, math.Inf(1), false},            // no complete plan yet
		{[]float64{50}, 10, false},                       // one relation: mergeGroupBys may undercut it
		{[]float64{0.1, 0.2}, 0.3, false},                // 0.30000000000000004, shrunk below 0.3
		{[]float64{0.1, 0.2}, 0.2999, true},              // clearly above, shrunk or not
		{[]float64{1 << 52, 1 << 52}, 1 << 53, false},    // whole leaves, sum not below 2⁵³: shrunk
		{[]float64{1 << 52, 1<<52 - 1}, 1<<53 - 1, true}, // whole sum just below 2⁵³: exact tie
	} {
		dp := &blockDP{best: map[uint64][]entry{}}
		for i, leaf := range c.leaves {
			mask := uint64(1) << i
			dp.rels = append(dp.rels, dpRel{mask: mask})
			dp.best[mask] = []entry{{info: cost.Info{Cost: leaf}}}
		}
		if got := dp.leavesLose(c.bound); got != c.lose {
			t.Errorf("leaves %v, bound %v: leavesLose %v, want %v", c.leaves, c.bound, got, c.lose)
		}
	}
}
