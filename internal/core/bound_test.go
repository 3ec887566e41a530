package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
)

// TestBoundKeepsTheChoice is branch and bound's contract: it changes what
// the search costs, never what it chooses. Over every golden query × mode ×
// join repertoire × pool, once with page IO alone and once with a per-tuple
// price, Optimize (bounded) hands out the first cheapest plan Alternatives
// (unbounded) finalizes: same tree, same cost bits.
func TestBoundKeepsTheChoice(t *testing.T) {
	pruned := 0
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
								if stats.Pruned != 0 {
									t.Fatalf("Alternatives pruned %d extensions: it must search unbounded", stats.Pruned)
								}
								pruned += checkChosen(t, q, opts, alts).Stats.Pruned
							})
						}
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("the bound pruned nothing over the whole grid: the property is vacuous")
	}
}

// TestSeededBoundRerunsUnbounded forces the seeded search's fallback with a
// seed below the best plan's cost, which prunes extensions of that plan's
// own: once with page IO alone, where the bounded pass ends with no
// complete plan, and once with a per-tuple price, where it finds the best
// plan at a cost above the seed and must not trust it. Either way the DP
// must search again without a bound and hand out the plan Optimize
// chooses.
func TestSeededBoundRerunsUnbounded(t *testing.T) {
	g := goldenGroups(t)[0]
	i := slices.IndexFunc(g.cases, func(c goldenCase) bool { return c.name == "star-5" })
	q := bindGolden(t, g.cat, g.cases[i].sql)
	for _, tc := range []struct {
		cpuWeight, seedShare float64
		foundAboveSeed       bool
	}{{0, 0.9, false}, {0.01, 0.98, true}} {
		opts := DefaultOptions()
		opts.PoolPages, opts.CPUWeight = 256, tc.cpuWeight
		want, err := Optimize(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		dp, release := starDP(t, q, opts)
		seed := want.Cost * tc.seedShare
		node, info, err := dp.bestSeeded(seed)
		if err != nil {
			t.Fatal(err)
		}
		if dp.stats.Pruned == 0 || dp.bounded {
			t.Fatalf("cpu=%v seed %v: pruned %d, bounded after the call %v: the fallback did not run",
				tc.cpuWeight, seed, dp.stats.Pruned, dp.bounded)
		}
		if lplan.Format(node) != want.Explain() || math.Float64bits(info.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("cpu=%v after the fallback: cost %v, Optimize %v\ngot:\n%swant:\n%s",
				tc.cpuWeight, info.Cost, want.Cost, lplan.Format(node), want.Explain())
		}
		release()

		// The bounded pass alone, to pin which path the case takes.
		dp, release = starDP(t, q, opts)
		dp.bounded, dp.seeded, dp.bound = true, true, seed
		if err := dp.join(); err != nil {
			t.Fatal(err)
		}
		if found := len(dp.best[fullMask(len(dp.rels))]) > 0; found != tc.foundAboveSeed {
			t.Fatalf("cpu=%v: bounded pass found a complete plan: %v, want %v", tc.cpuWeight, found, tc.foundAboveSeed)
		}
		release()
	}
}

// starDP sets up the top-block DP of a query without views, its leaves
// costed, as Optimize's one phase-two run would.
func starDP(t *testing.T, q *qblock.Query, opts Options) (*blockDP, func()) {
	t.Helper()
	o, err := newOptimizer(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.decompose(); err != nil {
		t.Fatal(err)
	}
	o.computeNeeded()
	var conjs []expr.Expr
	for _, pc := range o.pool {
		conjs = append(conjs, pc.outer)
	}
	dp, err := o.topDP(o.bRels, nil, conjs)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := dp.addLeaves(); err != nil {
		t.Fatal(err)
	}
	return dp, o.mem.release
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
