package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"aggview/internal/cost"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/storage"
)

// forEachGoldenSearch runs fn over the golden differential's grid on the
// given catalogs: every query × mode × join repertoire × pool size. fn also
// gets the store the query's catalog lives on.
func forEachGoldenSearch(t *testing.T, groups []goldenGroup, fn func(name string, q *qblock.Query, opts Options, store *storage.Store)) {
	for _, g := range groups {
		for _, c := range g.cases {
			q := bindGolden(t, g.cat, c.sql)
			for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
				for _, noHash := range []bool{false, true} {
					for _, pool := range []int{8, 256} {
						opts := DefaultOptions()
						opts.Mode, opts.NoHashJoin, opts.PoolPages = mode, noHash, pool
						fn(c.name, q, opts, g.cat.Snapshot().Store())
					}
				}
			}
		}
	}
}

// TestMemoAndTreeWalkAgree costs every complete plan both ways. The search
// prices candidates — finalists included — through the cost model's
// node-free kernels over memo entries and builds a tree only for a plan it
// hands on; a fresh model then walks each tree node by node. There is one
// set of formulas, so cost, cardinality, size, width and order must agree to
// the bit, for the winner and for every alternative that lost to it.
func TestMemoAndTreeWalkAgree(t *testing.T) {
	forEachGoldenSearch(t, goldenGroups(t), func(name string, q *qblock.Query, opts Options, _ *storage.Store) {
		plan, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, opts, err)
		}
		where := fmt.Sprintf("%s mode=%v nohash=%v pool=%d", name, opts.Mode, opts.NoHashJoin, opts.PoolPages)
		checkTreeWalk(t, where+" winner", plan.Root, plan.Info, opts)
		alts, _, err := Alternatives(q, opts)
		if err != nil {
			t.Fatalf("%s: Alternatives: %v", where, err)
		}
		for i, a := range alts {
			if math.Float64bits(a.Cost) != math.Float64bits(a.Info.Cost) {
				t.Errorf("%s alternative %d %q: Cost %v, Info.Cost %v", where, i, a.Label, a.Cost, a.Info.Cost)
			}
			checkTreeWalk(t, fmt.Sprintf("%s alternative %d %q", where, i, a.Label), a.Root, a.Info, opts)
		}
	})
}

// checkTreeWalk asserts that the search's numbers for a plan are what a
// fresh cost model derives by walking its tree.
func checkTreeWalk(t *testing.T, where string, root lplan.Node, got *cost.Info, opts Options) {
	t.Helper()
	want, err := cost.NewModel(opts.PoolPages, opts.CPUWeight).Info(root)
	if err != nil {
		t.Fatalf("%s: costing the tree: %v", where, err)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(got.Rows) != math.Float64bits(want.Rows) ||
		math.Float64bits(got.Pages) != math.Float64bits(want.Pages) ||
		got.Width != want.Width || !slices.Equal(got.Order, want.Order) {
		t.Errorf("%s:\n memo      cost=%v rows=%v pages=%v width=%d order=%v\n tree walk cost=%v rows=%v pages=%v width=%d order=%v\n%s",
			where, got.Cost, got.Rows, got.Pages, got.Width, got.Order,
			want.Cost, want.Rows, want.Pages, want.Width, want.Order, lplan.Format(root))
	}
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
// allocates on four of adhoc-plan's templates, the two heaviest among them,
// as counts — bytes and objects per call — because time on the shared host
// is ±15 %.
//
// Before the search memo (a tree and a map per candidate), same warehouse
// and pool:
//
//	star-6-over-view  47.8 MB  194 072 objects  (7 405 plans considered)
//	star-5             9.06 MB  35 379 objects  (1 473 plans considered)
//
// With the memo, finalists still costed by walking a tree each and column
// statistics holding a pointer per value range:
//
//	star-6-over-view  736 KB  7 204 objects
//	star-5            156 KB  1 463 objects
//
// With pointer-free statistics, kernel-costed finalists and a tree for the
// winner only:
//
//	star-6-over-view          273 KB  2 432 objects
//	star-5                   81.1 KB    692 objects
//	star-4                   58.5 KB    512 objects
//	grouped-having-over-view 62.0 KB    566 objects
//
// With the view search's relation sets held as bitmasks rather than alias
// maps (the ceilings are these figures + 10 %, star-6-over-view's bytes
// excepted: they keep the earlier, tighter 294 KB):
//
//	star-6-over-view          268 KB  2 349 objects
//	star-5                   79.7 KB    675 objects
//	star-4                   57.4 KB    499 objects
//	grouped-having-over-view 60.0 KB    543 objects
//
// With branch and bound (the ceilings are these figures + 10 %,
// grouped-having-over-view's bytes excepted: its search did not change, and
// it keeps the earlier, tighter 66 KB):
//
//	star-6-over-view          227 KB  1 940 objects  (2 280 plans considered)
//	star-5                   71.4 KB    595 objects    (690 plans considered)
//	star-4                   56.4 KB    487 objects
//	grouped-having-over-view 60.1 KB    543 objects
//
// With plans extended only by relations a conjunct links to them, phase
// one building only the states some V′ ∪ W holds, column walks without a
// map, and the DP's per-search maps replaced by lists and memo scratch (the
// ceilings are these figures + 10 %):
//
//	star-6-over-view          120 KB    896 objects  (1 068 plans considered)
//	star-5                   36.3 KB    262 objects    (609 plans considered)
//	star-4                   26.6 KB    192 objects
//	grouped-having-over-view 33.3 KB    265 objects
//
// Each figure is the least of five batches of calls: a batch in which the
// collector emptied the memo pool pays for a fresh memo's chunks, which is
// not what a call costs. Under the race detector allocation counts differ,
// so the calls run but the assertion is skipped.
func TestOptimizeAllocationCeilings(t *testing.T) {
	g := goldenGroups(t)[0]
	for _, tc := range []struct {
		name                string
		maxBytes, maxObject float64
	}{
		{"star-6-over-view", 131_600, 986},
		{"star-5", 39_900, 288},
		{"star-4", 29_200, 211},
		{"grouped-having-over-view", 36_600, 292},
	} {
		i := slices.IndexFunc(g.cases, func(c goldenCase) bool { return c.name == tc.name })
		q := bindGolden(t, g.cat, g.cases[i].sql)
		opts := DefaultOptions()
		opts.PoolPages = 256
		bytes, objects := perCall(func() {
			if _, err := Optimize(q, opts); err != nil {
				t.Fatal(err)
			}
		})
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

// perCall returns the bytes and objects one call of run allocates: the
// least per-call average over five batches of twenty, on one P so that no
// other goroutine's allocations are counted.
func perCall(run func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm the memo pool
	const runs, batches = 20, 5
	bytes, objects = math.Inf(1), math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/runs)
	}
	return bytes, objects
}
