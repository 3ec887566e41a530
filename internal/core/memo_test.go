package core

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"aggview/internal/cost"
	"aggview/internal/qblock"
)

// forEachGoldenSearch runs fn over the golden differential's grid: every
// query × mode × join repertoire × pool size.
func forEachGoldenSearch(t *testing.T, fn func(name string, q *qblock.Query, opts Options)) {
	for _, g := range goldenGroups(t) {
		for _, c := range g.cases {
			q := bindGolden(t, g.cat, c.sql)
			for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
				for _, noHash := range []bool{false, true} {
					for _, pool := range []int{8, 256} {
						opts := DefaultOptions()
						opts.Mode, opts.NoHashJoin, opts.PoolPages = mode, noHash, pool
						fn(c.name, q, opts)
					}
				}
			}
		}
	}
}

// TestMemoAndTreeWalkAgree costs every winner both ways. The search prices
// candidates through the cost model's node-free kernels over memo entries;
// a fresh model then walks the winning tree node by node. There is one set
// of formulas, so cost, cardinality, size and order must agree to the bit.
func TestMemoAndTreeWalkAgree(t *testing.T) {
	forEachGoldenSearch(t, func(name string, q *qblock.Query, opts Options) {
		plan, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, opts, err)
		}
		walked, err := cost.NewModel(opts.PoolPages, opts.CPUWeight).Info(plan.Root)
		if err != nil {
			t.Fatalf("%s: costing the winner: %v", name, err)
		}
		got, want := plan.Info, walked
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
			math.Float64bits(got.Rows) != math.Float64bits(want.Rows) ||
			math.Float64bits(got.Pages) != math.Float64bits(want.Pages) ||
			got.Width != want.Width || !slices.Equal(got.Order, want.Order) {
			t.Errorf("%s mode=%v nohash=%v pool=%d:\n memo      cost=%v rows=%v pages=%v width=%d order=%v\n tree walk cost=%v rows=%v pages=%v width=%d order=%v\n%s",
				name, opts.Mode, opts.NoHashJoin, opts.PoolPages,
				got.Cost, got.Rows, got.Pages, got.Width, got.Order,
				want.Cost, want.Rows, want.Pages, want.Width, want.Order, plan.Explain())
		}
	})
}

func TestNextOfSizeEnumeratesLevelsInOrder(t *testing.T) {
	const n = 7
	full := fullMask(n)
	for size := 1; size <= n; size++ {
		var want []uint64
		for s := uint64(1); s <= full; s++ {
			if bits.OnesCount64(s) == size {
				want = append(want, s)
			}
		}
		var got []uint64
		for s := fullMask(size); s <= full; s = nextOfSize(s) {
			got = append(got, s)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("size %d: got %b, want %b", size, got, want)
		}
	}
	// The widest DP the search accepts must terminate too.
	if s := nextOfSize(fullMask(62)); s <= fullMask(62) {
		t.Fatalf("nextOfSize(full 62) = %b", s)
	}
}

// TestOptimizeAllocationCeilings bounds what one core.Optimize call
// allocates on adhoc-plan's two heaviest templates, as counts — bytes and
// objects per call — because time on the shared host is ±15 %.
//
// Parent commit (a tree and a map per candidate), same warehouse and pool:
//
//	star-6-over-view  47.8 MB  194 072 objects  (7 405 plans considered)
//	star-5             9.06 MB  35 379 objects  (1 473 plans considered)
//
// (the issue's whole-call reference, on the benchmark's seed, is 34.9 MB /
// 136 k and 11.0 MB / 37.9 k). With the search memo:
//
//	star-6-over-view  0.74 MB    7 936 objects
//	star-5            0.16 MB    1 554 objects
//
// The ceilings are well under 20 % of the smaller parent figure in every
// column, with headroom over today's numbers for pool misses after a GC.
// Under the race detector allocation counts differ, so the calls run but
// the assertion is skipped.
func TestOptimizeAllocationCeilings(t *testing.T) {
	g := goldenGroups(t)[0]
	for _, tc := range []struct {
		name                string
		maxBytes, maxObject float64
	}{
		{"star-6-over-view", 1600 << 10, 14000},
		{"star-5", 400 << 10, 3000},
	} {
		i := slices.IndexFunc(g.cases, func(c goldenCase) bool { return c.name == tc.name })
		q := bindGolden(t, g.cat, g.cases[i].sql)
		opts := DefaultOptions()
		opts.PoolPages = 256
		run := func() {
			if _, err := Optimize(q, opts); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		objects := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f bytes, %.0f objects per Optimize", tc.name, bytes, objects)
		if raceEnabled {
			continue
		}
		if bytes > tc.maxBytes || objects > tc.maxObject {
			t.Errorf("%s: %.0f bytes and %.0f objects per Optimize, ceilings %.0f and %.0f",
				tc.name, bytes, objects, tc.maxBytes, tc.maxObject)
		}
	}
}
