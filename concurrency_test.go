package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aggview"
)

// perQueryIO is one worker's record of a finished query: what the engine
// said the query itself cost.
type perQueryIO struct {
	io  aggview.IOStats
	ops []aggview.OpMetrics
}

// TestConcurrentMixedModeAttributionExact is the tentpole stress test: 8+
// goroutines run the warehouse suite through every public execution mode —
// materializing Query, cold WithMode+WithColdCache, streaming QueryRows (with and
// without LIMIT), and ExplainAnalyze — on ONE engine. For every single
// query it asserts the attribution-exactness invariant (per-operator page
// sums == that query's own IO), and for the whole window it asserts that
// the per-query deltas sum exactly to the engine's global IOStats delta:
// no page is lost, none is double- or cross-attributed.
func TestConcurrentMixedModeAttributionExact(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	const workers = 8
	const iters = 3

	before := eng.IOStats()
	m0 := eng.Metrics()

	var mu sync.Mutex
	var all []perQueryIO
	record := func(io aggview.IOStats, ops []aggview.OpMetrics) {
		mu.Lock()
		all = append(all, perQueryIO{io: io, ops: ops})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers*iters*len(obsSuite))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				for qi, q := range obsSuite {
					var io aggview.IOStats
					var ops []aggview.OpMetrics
					switch (w + it + qi) % 4 {
					case 0: // materializing Query
						res, err := eng.Query(context.Background(), q)
						if err != nil {
							errCh <- fmt.Errorf("worker %d Query %d: %w", w, qi, err)
							return
						}
						io, ops = res.IO, res.Ops
					case 1: // cold Query under a rotating optimizer mode
						mode := []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full}[w%3]
						res, err := eng.Query(ctx, q, aggview.WithMode(mode), aggview.WithColdCache())
						if err != nil {
							errCh <- fmt.Errorf("worker %d cold Query %d: %w", w, qi, err)
							return
						}
						io, ops = res.IO, res.Ops
					case 2: // streaming cursor, partially consumed on odd workers
						rows, err := eng.QueryRows(ctx, q)
						if err != nil {
							errCh <- fmt.Errorf("worker %d QueryRows %d: %w", w, qi, err)
							return
						}
						n := 0
						for rows.Next() {
							n++
							if w%2 == 1 && n >= 5 {
								break // abandon mid-stream; Close must account cleanly
							}
						}
						if err := rows.Close(); err != nil {
							errCh <- fmt.Errorf("worker %d QueryRows %d close: %w", w, qi, err)
							return
						}
						io, ops = rows.IO(), rows.Ops()
					case 3: // EXPLAIN ANALYZE (cold, traced)
						a, err := eng.ExplainAnalyze(ctx, q)
						if err != nil {
							errCh <- fmt.Errorf("worker %d ExplainAnalyze %d: %w", w, qi, err)
							return
						}
						if a.Unattributed.PagesTotal() != 0 || a.Unattributed.Hits != 0 {
							errCh <- fmt.Errorf("worker %d query %d: unattributed IO %+v", w, qi, a.Unattributed)
							return
						}
						io = a.IO
						walkAnalyzeOps(a.Root, func(m *aggview.OpMetrics) { ops = append(ops, *m) })
					}
					r, wr, h := sumOps(ops)
					if r != io.Reads || wr != io.Writes || h != io.Hits {
						errCh <- fmt.Errorf("worker %d query %d: per-op sums reads=%d writes=%d hits=%d, want %+v",
							w, qi, r, wr, h, io)
						return
					}
					record(io, ops)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The whole window's IO came from these queries and nothing else, so
	// the per-query session deltas must sum exactly to the global delta.
	delta := eng.IOStats().Sub(before)
	var sum aggview.IOStats
	for _, q := range all {
		sum.Reads += q.io.Reads
		sum.Writes += q.io.Writes
		sum.Hits += q.io.Hits
	}
	if sum != delta {
		t.Errorf("per-query IO sums %+v != engine global delta %+v", sum, delta)
	}

	// The metrics registry saw every query exactly once, with the same
	// exact page accounting and zero failures.
	md := eng.Metrics().Sub(m0)
	if want := int64(len(all)); md.Queries != want {
		t.Errorf("metrics Queries = %d, want %d", md.Queries, want)
	}
	if md.Failures != 0 {
		t.Errorf("metrics Failures = %d, want 0", md.Failures)
	}
	if md.PageReads != delta.Reads || md.PageWrites != delta.Writes || md.PageHits != delta.Hits {
		t.Errorf("metrics pages reads=%d writes=%d hits=%d, want %+v",
			md.PageReads, md.PageWrites, md.PageHits, delta)
	}
}

// walkAnalyzeOps visits every measured operator in an annotated plan tree.
func walkAnalyzeOps(n *aggview.OpNode, fn func(*aggview.OpMetrics)) {
	if n == nil {
		return
	}
	if n.Actual != nil {
		fn(n.Actual)
	}
	for _, c := range n.Children {
		walkAnalyzeOps(c, fn)
	}
}

// TestConcurrentIOBudgetIsolation: MaxIOPages is a per-query budget, so a
// query whose own cost fits must succeed even while concurrent heavy
// queries burn pages on the same engine — and a query with a hopeless
// budget must fail without hurting its neighbors.
func TestConcurrentIOBudgetIsolation(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := obsSuite[0]

	// Size the budget from a solo cold run, with headroom: concurrent
	// queries evict shared pool pages, so this query's charged misses rise,
	// but they must stay bounded by its own working set — never by the
	// neighbors' total IO.
	solo, err := eng.Query(context.Background(), q, aggview.WithMode(aggview.Full), aggview.WithColdCache())
	if err != nil {
		t.Fatal(err)
	}
	budget := solo.IO.Total()*4 + 64

	fits := aggview.WithLimits(aggview.Limits{MaxIOPages: budget})
	starved := aggview.WithLimits(aggview.Limits{MaxIOPages: 2})

	const workers = 9
	var wg sync.WaitGroup
	errCh := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				switch w % 3 {
				case 0: // heavy unbudgeted traffic
					if _, err := eng.Query(context.Background(), obsSuite[(w+it)%len(obsSuite)]); err != nil {
						errCh <- fmt.Errorf("heavy worker %d: %w", w, err)
						return
					}
				case 1: // budget that fits this query alone
					res, err := eng.Query(context.Background(), q, fits)
					if err != nil {
						errCh <- fmt.Errorf("budgeted worker %d: budget %d should fit, got %w (neighbors leaked into the budget?)", w, budget, err)
						return
					}
					if res.IO.Total() > budget {
						errCh <- fmt.Errorf("budgeted worker %d: measured %d pages over budget %d yet no error", w, res.IO.Total(), budget)
						return
					}
				case 2: // hopeless budget must trip on its own pages only
					_, err := eng.Query(context.Background(), q, starved)
					if !errors.Is(err, aggview.ErrIOBudget) {
						errCh <- fmt.Errorf("starved worker %d: err = %v, want ErrIOBudget", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentCursorsInterleaved: two streaming cursors on one engine,
// advanced in lockstep from separate goroutines; one is canceled
// mid-stream. The survivor's rows, IO accounting and metrics rollup must be
// unaffected by the neighbor's cancellation.
func TestConcurrentCursorsInterleaved(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	q := `select l.orderkey, l.qty from lineitem l where l.qty < 40`

	ref, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("reference query returned no rows")
	}

	ctx, cancel := context.WithCancel(context.Background())
	survivor, err := eng.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := eng.QueryRows(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// step interleaves the two cursors: the survivor ticks it every few
	// rows and closes it when done. It is buffered so the survivor never
	// blocks on a victim that has already stopped.
	step := make(chan struct{}, ref.Len())
	done := make(chan error, 2)
	go func() { // survivor: drain fully
		defer close(step)
		n := 0
		for survivor.Next() {
			n++
			if n%8 == 0 {
				step <- struct{}{} // let the victim advance
			}
		}
		survivor.Close()
		if err := survivor.Err(); err != nil {
			done <- fmt.Errorf("survivor: %w", err)
			return
		}
		if n != ref.Len() {
			done <- fmt.Errorf("survivor rows = %d, want %d", n, ref.Len())
			return
		}
		done <- nil
	}()
	go func() { // victim: advance a few steps, then get canceled mid-stream
		n := 0
		for range step {
			if !victim.Next() {
				break
			}
			n++
			if n == 3 {
				cancel()
			}
		}
		for victim.Next() { // drain to the cancellation error
		}
		victim.Close()
		if err := victim.Err(); err != nil && !errors.Is(err, aggview.ErrCanceled) {
			done <- fmt.Errorf("victim: err = %v, want ErrCanceled or clean early end", err)
			return
		}
		done <- nil
	}()

	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	cancel()

	// The survivor's accounting is exact despite the neighbor's abort.
	io := survivor.IO()
	r, w, h := sumOps(survivor.Ops())
	if r != io.Reads || w != io.Writes || h != io.Hits {
		t.Errorf("survivor per-op sums reads=%d writes=%d hits=%d, want %+v", r, w, h, io)
	}
	if got := eng.LiveTempFiles(); len(got) != 0 {
		t.Errorf("spill files leaked after cursor teardown: %v", got)
	}
}

// TestConcurrentCloseIdempotent: Rows.Close racing from two goroutines (the
// shape of a caller's defer racing a governor timeout) publishes the query
// rollup exactly once and tears down exactly once.
func TestConcurrentCloseIdempotent(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	const n = 20
	m0 := eng.Metrics()
	for i := 0; i < n; i++ {
		rows, err := eng.QueryRows(context.Background(), obsSuite[i%len(obsSuite)])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4 && rows.Next(); j++ {
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows.Close()
			}()
		}
		wg.Wait()
	}
	if d := eng.Metrics().Sub(m0); d.Queries != n {
		t.Errorf("metrics Queries = %d after %d queries with racing Close, want exactly %d", d.Queries, n, n)
	}
}

// TestConcurrentDDLSerializesWithQueries: writers (INSERT into a scratch
// table, DropCaches) interleave with readers on one engine.
// Writers serialize behind the single-writer gate while readers run
// against pinned snapshots; the mix must produce no deadlock, data races,
// or query failures.
func TestConcurrentDDLSerializesWithQueries(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	if _, err := eng.Exec(`create table scratch (k int, v int)`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ { // readers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := eng.Query(context.Background(), obsSuite[(w+i)%len(obsSuite)]); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // writer: inserts serialize against all readers
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 30; i++ {
			stmt := fmt.Sprintf("insert into scratch values (%d, %d)", i, i*i)
			if _, err := eng.Exec(stmt); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // maintenance: drops the pool under running readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.DropCaches()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	res, err := eng.Query(context.Background(), `select count(*) as n from scratch s`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].(int64) != 30 {
		t.Errorf("scratch table rows = %v, want 30", res.Rows)
	}
}

// TestForceDropCachesBypassAudit: the engine sweeps the pool while sessions
// are open — Store.ForceDropCaches behind both Engine.DropCaches and the
// cold-measurement path — and may never surface a half-dropped cache to a
// concurrent reader.
//
//  1. Engine.DropCaches does not wait for in-flight queries: the first half
//     of the test proves that a long-lived streaming cursor cannot wedge
//     cache maintenance — the drop completes while the cursor is still
//     open, and the cursor keeps producing exact results afterwards (the
//     pool tracks page identity only, never data).
//  2. The cold-measurement path (WithColdCache) drops the pool concurrently
//     with other readers, so the second half hammers cold runs against
//     plain readers and asserts every answer stays exact.
func TestForceDropCachesBypassAudit(t *testing.T) {
	eng := newWarehouse(t, aggview.Config{PoolPages: 8})
	ctx := context.Background()

	// Part 1: maintenance completes in bounded time under an open cursor.
	rows, err := eng.QueryRows(ctx, `select l.orderkey from lineitem l`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("cursor returned no rows: %v", rows.Err())
	}
	dropped := make(chan struct{})
	go func() {
		eng.DropCaches()
		close(dropped)
	}()
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("DropCaches wedged behind an open streaming cursor")
	}
	// The cursor survives the drop: it keeps streaming rows to completion
	// with no error (only its hit/miss accounting may have shifted).
	n := int64(1)
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("cursor failed after cache drop: %v", err)
	}
	res, err := eng.Query(ctx, `select count(*) as n from lineitem l`)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Rows[0][0].(int64); n != want {
		t.Fatalf("cursor streamed %d rows across a cache drop, want %d", n, want)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Part 2: cold runs (read-locked ForceDropCaches) race plain readers.
	queries := []string{
		`select p.brand, max(v.aqty) from part p, part_qty v
		 where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`,
		`select c.nation, count(*) as n from customer c, orders o
		 where o.custkey = c.custkey group by c.nation order by n desc limit 3`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rowsFingerprint(res)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 3; w++ { // plain readers: warm or cold pool, same answer
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (w + i) % len(queries)
				res, err := eng.Query(context.Background(), queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				if rowsFingerprint(res) != want[qi] {
					errCh <- fmt.Errorf("reader %d: query %d answer changed under cache drops", w, qi)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // cold runs: ForceDropCaches under the read lock
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (w + i) % len(queries)
				res, err := eng.Query(ctx, queries[qi], aggview.WithMode(aggview.Full), aggview.WithColdCache())
				if err != nil {
					errCh <- fmt.Errorf("cold runner %d: %w", w, err)
					return
				}
				if rowsFingerprint(res) != want[qi] {
					errCh <- fmt.Errorf("cold runner %d: query %d answer changed", w, qi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if leaks := eng.LiveTempFiles(); len(leaks) != 0 {
		t.Fatalf("leaked spill files %v", leaks)
	}
}
