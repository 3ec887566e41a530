package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggview"
)

// BenchResult is one query × optimizer-mode measurement in a benchmark
// snapshot: the cost model's estimate next to the page IO the execution
// actually performed on a cold buffer pool.
type BenchResult struct {
	Name            string  `json:"name"`
	Mode            string  `json:"mode"`
	EstimatedCost   float64 `json:"estimated_cost"`
	Rows            int64   `json:"rows"`
	Reads           int64   `json:"reads"`
	Writes          int64   `json:"writes"`
	Hits            int64   `json:"hits"`
	SpillReads      int64   `json:"spill_reads"`
	SpillWrites     int64   `json:"spill_writes"`
	PlansConsidered int     `json:"plans_considered"`
	OptimizeUS      int64   `json:"optimize_us"`
}

// ThroughputResult is one concurrency level of the throughput
// micro-benchmark: N goroutines drive the warehouse query suite against one
// shared engine, and qps measures end-to-end sustained query completions.
// Besides sustained qps it records per-query latency percentiles over the
// window: p50 tracks the typical query, p95/p99 the convoy tail (lock
// queueing, spills, GC pauses) that a mean hides.
type ThroughputResult struct {
	Concurrency int     `json:"concurrency"`
	Queries     int64   `json:"queries"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	QPS         float64 `json:"qps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// OuterJoinResult is one outer-join query × optimizer-mode cell of the
// snapshot's outer-join section: cold page IO and estimates like the main
// results, plus warm latency percentiles, over NULL-heavy emp/dept data.
// ViewRewrite is recorded as a legality canary — it must stay empty, since
// stored groups can never serve a null-padding query (the COUNT bug).
type OuterJoinResult struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"`
	EstimatedCost float64 `json:"estimated_cost"`
	Rows          int64   `json:"rows"`
	Reads         int64   `json:"reads"`
	Hits          int64   `json:"hits"`
	ViewRewrite   string  `json:"view_rewrite,omitempty"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// MixedResult is one concurrency level of the mixed read/write benchmark:
// N reader goroutines drive the warehouse query suite while one background
// writer commits small INSERTs in a tight loop. Readers pin MVCC snapshots
// and never queue behind the writer; each commit publishes a new catalog
// version, so every post-commit query also pays a plan-cache invalidation.
// Reader qps and tail latency against the read-only Throughput section
// quantify what concurrent commits cost a reader — under the old exclusive
// engine lock every commit stalled the whole read side, which showed up
// directly in p95/p99.
type MixedResult struct {
	Concurrency   int     `json:"concurrency"` // readers; plus one writer
	Queries       int64   `json:"queries"`
	WriterCommits int64   `json:"writer_commits"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	QPS           float64 `json:"qps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// PreparedResult is one (variant, concurrency) cell of the
// prepared-vs-adhoc benchmark. All variants run the same parameterized
// warehouse workload; they differ only in how each execution obtains its
// plan:
//
//   - "adhoc":          Engine.Query with literals — full compile per run
//   - "prepared-cold":  Prepare + one execution against an empty plan
//     cache per run (prepare-then-use-once cost)
//   - "prepared-warm":  shared Stmts prepared before timing — every run
//     is a cache hit, no optimizer work
//   - "cache-disabled": shared Stmts on a PlanCacheSize<0 engine — the
//     prepared path with caching off, recompiling per run
type PreparedResult struct {
	Concurrency int     `json:"concurrency"`
	Variant     string  `json:"variant"`
	Queries     int64   `json:"queries"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	QPS         float64 `json:"qps"`
}

// DurabilityResult is one (variant, concurrency) cell of the WAL-overhead
// benchmark: N goroutines drive a mixed read/write warehouse workload —
// the query suite plus scratch-table inserts per iteration — against one
// engine. The "wal" variant runs a durable engine (every mutation appends
// and fsyncs before acknowledging); "memory" runs the identical workload
// on an in-memory engine. The spread is the price of durability.
type DurabilityResult struct {
	Concurrency int     `json:"concurrency"`
	Variant     string  `json:"variant"` // "wal" | "memory"
	Statements  int64   `json:"statements"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	QPS         float64 `json:"qps"`
}

// RecoveryResult times a cold OpenDurable of the warehouse data directory
// after the durability workload: checkpoint load plus log-tail replay.
type RecoveryResult struct {
	WALBytes  int64   `json:"wal_bytes"` // on-disk size of the data directory
	RecoverMS float64 `json:"recover_ms"`
}

// Snapshot is a machine-readable benchmark record: the paper's example
// queries run under every optimizer mode, with per-mode page IO, plus the
// concurrent-throughput, prepared-vs-adhoc and durability sections. `make
// bench` writes one as BENCH_<date>.json so regressions in plan quality
// show up as diffs.
type Snapshot struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	Quick       bool               `json:"quick"`
	Results     []BenchResult      `json:"results"`
	Throughput  []ThroughputResult `json:"throughput,omitempty"`
	Mixed       []MixedResult      `json:"mixed,omitempty"`
	Prepared    []PreparedResult   `json:"prepared,omitempty"`
	Durability  []DurabilityResult `json:"durability,omitempty"`
	Recovery    *RecoveryResult    `json:"recovery,omitempty"`
	MatViews    []MatViewResult    `json:"matviews,omitempty"`
	OuterJoins  []OuterJoinResult  `json:"outer_joins,omitempty"`
}

// JSON renders the snapshot with stable indentation for committing.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// benchCase is one named query bound to the engine that can run it.
type benchCase struct {
	name string
	sql  string
	eng  *aggview.Engine
}

// benchCases builds the snapshot's engines and query set: the paper's
// Example 1 over emp/dept, and the warehouse (TPC-D-like) view queries the
// integration suite measures. The warehouse engine is returned separately
// for the throughput section.
func benchCases(quick bool) ([]benchCase, *aggview.Engine, error) {
	nEmp, nDept, nLine := 5000, 100, 1500
	if quick {
		nEmp, nDept, nLine = 1000, 40, 400
	}

	emp := aggview.Open(aggview.Config{PoolPages: 32})
	espec := aggview.DefaultEmpDept()
	espec.Employees, espec.Departments = nEmp, nDept
	if err := emp.LoadEmpDept(espec); err != nil {
		return nil, nil, err
	}

	wh := aggview.Open(aggview.Config{PoolPages: 8})
	wspec := aggview.DefaultTPCD()
	wspec.Lineitems = nLine
	if err := wh.LoadTPCD(wspec); err != nil {
		return nil, nil, err
	}
	if _, err := wh.Exec(`create view part_qty (partkey, aqty) as
		select partkey, avg(qty) from lineitem group by partkey`); err != nil {
		return nil, nil, err
	}
	if _, err := wh.Exec(`create view order_value (orderkey, value) as
		select orderkey, sum(price) from lineitem group by orderkey`); err != nil {
		return nil, nil, err
	}

	return []benchCase{
		{"example1-nested", `
			select e1.sal from emp e1
			where e1.age < 22
			  and e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)`, emp},
		{"view-join-filter", `
			select p.brand, l.qty from lineitem l, part p, part_qty v
			where l.partkey = p.partkey and v.partkey = p.partkey
			  and p.brand < 5 and l.qty < v.aqty`, wh},
		{"two-views-join", `
			select v.aqty, o.value from part_qty v, order_value o, lineitem l
			where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`, wh},
		{"grouped-having-over-view", `
			select p.brand, max(v.aqty) from part p, part_qty v
			where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`, wh},
	}, wh, nil
}

// NewSnapshot runs every snapshot query under every optimizer mode, cold,
// and records estimates next to measured page IO, then measures concurrent
// throughput on the warehouse engine at each given concurrency level
// (default 1, 4, 16 when none are passed).
func NewSnapshot(quick bool, concurrency ...int) (*Snapshot, error) {
	cases, wh, err := benchCases(quick)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Quick:       quick,
	}
	modes := []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full}
	for _, c := range cases {
		for _, mode := range modes {
			m0 := c.eng.Metrics()
			res, err := c.eng.Query(context.Background(), c.sql, aggview.WithMode(mode), aggview.WithColdCache())
			if err != nil {
				return nil, err
			}
			d := c.eng.Metrics().Sub(m0)
			var spillR, spillW int64
			for i := range res.Ops {
				spillR += res.Ops[i].SpillReads
				spillW += res.Ops[i].SpillWrites
			}
			snap.Results = append(snap.Results, BenchResult{
				Name:            c.name,
				Mode:            mode.String(),
				EstimatedCost:   res.Plan.EstimatedCost,
				Rows:            int64(res.Len()),
				Reads:           res.IO.Reads,
				Writes:          res.IO.Writes,
				Hits:            res.IO.Hits,
				SpillReads:      spillR,
				SpillWrites:     spillW,
				PlansConsidered: res.Plan.Search.PlansConsidered,
				OptimizeUS:      d.OptimizeTime.Microseconds(),
			})
		}
	}

	levels := concurrency
	if len(levels) == 0 {
		levels = []int{1, 4, 16}
	}
	var whQueries []string
	for _, c := range cases {
		if c.eng == wh {
			whQueries = append(whQueries, c.sql)
		}
	}
	// Every level runs the same total number of queries, so each window is
	// seconds long regardless of worker count — short windows put GC pauses
	// and host scheduler noise on the same order as the measurement, which
	// made cross-level comparisons a coin flip.
	totalQueries := 2400
	iters := 40
	if quick {
		totalQueries, iters = 240, 4
	}
	for _, n := range levels {
		perWorker := totalQueries / (n * len(whQueries))
		if perWorker < 1 {
			perWorker = 1
		}
		tr, err := measureThroughput(wh, whQueries, n, perWorker)
		if err != nil {
			return nil, err
		}
		snap.Throughput = append(snap.Throughput, tr)
	}
	// Mixed read/write: the reader pool sizes the paper cares about (a few
	// concurrent sessions, then oversubscription), each level sharing the
	// engine with one continuously committing writer.
	for _, n := range []int{4, 16} {
		perWorker := totalQueries / (n * len(whQueries))
		if perWorker < 1 {
			perWorker = 1
		}
		mr, err := measureMixed(wh, whQueries, n, perWorker)
		if err != nil {
			return nil, err
		}
		snap.Mixed = append(snap.Mixed, mr)
	}
	for _, n := range levels {
		prs, err := measurePrepared(wh, n, iters)
		if err != nil {
			return nil, err
		}
		snap.Prepared = append(snap.Prepared, prs...)
	}
	drs, rec, err := measureDurability(quick, levels, iters)
	if err != nil {
		return nil, err
	}
	snap.Durability = drs
	snap.Recovery = rec
	mvs, err := measureMatViews(quick)
	if err != nil {
		return nil, err
	}
	snap.MatViews = mvs
	ojs, err := measureOuterJoins(quick)
	if err != nil {
		return nil, err
	}
	snap.OuterJoins = ojs
	return snap, nil
}

// latencyPercentiles reports the p50/p95/p99 of a latency sample in
// milliseconds, by sorted nearest-rank. The sample is consumed (sorted in
// place); an empty sample reports zeros.
func latencyPercentiles(lat []time.Duration) (p50, p95, p99 float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(p float64) float64 {
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return float64(lat[i].Microseconds()) / 1000
	}
	return at(0.50), at(0.95), at(0.99)
}

// measureMixed runs the warehouse query suite on `readers` goroutines
// while one writer goroutine commits scratch-table INSERTs as fast as the
// single-writer gate admits them, for the whole reader window. The
// scratch table keeps the suite's answers stable while still forcing a
// snapshot publish (and plan-cache invalidation) per commit.
func measureMixed(eng *aggview.Engine, queries []string, readers, iters int) (MixedResult, error) {
	if _, err := eng.Exec(`create table mixed_scratch (k int, v int)`); err != nil {
		return MixedResult{}, err
	}
	var (
		wg      sync.WaitGroup
		total   atomic.Int64
		commits atomic.Int64
		errCh   = make(chan error, readers+1)
		stop    = make(chan struct{})
		wdone   = make(chan struct{})
	)
	go func() {
		defer close(wdone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf(`insert into mixed_scratch values (%d, %d)`, i%97, i)
			if _, err := eng.Exec(q); err != nil {
				errCh <- err
				return
			}
			commits.Add(1)
		}
	}()
	lats := make([][]time.Duration, readers)
	start := time.Now()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats[w] = make([]time.Duration, 0, iters*len(queries))
			for i := 0; i < iters; i++ {
				for qi := range queries {
					t0 := time.Now()
					if _, err := eng.Query(context.Background(), queries[(qi+w)%len(queries)]); err != nil {
						errCh <- err
						return
					}
					lats[w] = append(lats[w], time.Since(t0))
					total.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	<-wdone
	close(errCh)
	if err := <-errCh; err != nil {
		return MixedResult{}, err
	}
	if _, err := eng.Exec(`drop table mixed_scratch`); err != nil {
		return MixedResult{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	p50, p95, p99 := latencyPercentiles(all)
	return MixedResult{
		Concurrency:   readers,
		Queries:       total.Load(),
		WriterCommits: commits.Load(),
		ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
		QPS:           float64(total.Load()) / elapsed.Seconds(),
		P50MS:         p50,
		P95MS:         p95,
		P99MS:         p99,
	}, nil
}

// outerJoinWorkload is the snapshot's outer-join suite: padding-heavy
// probe output, the COUNT-bug grouped pair over a preserved dimension, a
// FULL join whose NULL group key collects every unmatched fact row, and a
// residual ON conjunct that pads rather than filters.
var outerJoinWorkload = []struct{ name, sql string }{
	{"left-join-padding", `
		select e.eno as eno, d.budget as b from emp e left join dept d on e.dno = d.dno`},
	{"left-count-bug-grouped", `
		select d.dno as dno, count(*) as star, count(e.eno) as ce, sum(e.sal) as ss
		from dept d left join emp e on e.dno = d.dno group by d.dno`},
	{"full-join-grouped", `
		select d.dno as dno, count(*) as star, count(e.eno) as ce
		from emp e full join dept d on e.dno = d.dno group by d.dno`},
	{"left-residual-on", `
		select e.dno as dno, avg(e.sal) as a from emp e
		left join dept d on e.dno = d.dno and d.budget > 500000.0 group by e.dno`},
}

// measureOuterJoins runs the outer-join workload over NULL-heavy emp/dept
// data (a quarter of the nullable columns NULL, plus dangling keys): one
// cold run per mode for page IO, then a warm loop for latency percentiles.
// A materialized view over emp's rollup is installed so the rewriter is
// live — ViewRewrite staying empty in every cell is the recorded proof
// that stored groups never serve a null-padding query.
func measureOuterJoins(quick bool) ([]OuterJoinResult, error) {
	nEmp, nDept, warm := 5000, 100, 40
	if quick {
		nEmp, nDept, warm = 1000, 40, 8
	}
	eng := aggview.Open(aggview.Config{PoolPages: 32})
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = nEmp, nDept
	spec.NullFraction = 0.25
	if err := eng.LoadEmpDept(spec); err != nil {
		return nil, err
	}
	if _, err := eng.Exec(`create materialized view emp_by_dno as
		select dno, count(*) as n, sum(sal) as total from emp group by dno`); err != nil {
		return nil, err
	}

	modes := []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown, aggview.Full}
	var out []OuterJoinResult
	for _, q := range outerJoinWorkload {
		for _, mode := range modes {
			res, err := eng.Query(context.Background(), q.sql, aggview.WithMode(mode), aggview.WithColdCache())
			if err != nil {
				return nil, fmt.Errorf("outer join %s/%s: %w", q.name, mode, err)
			}
			if res.Plan.ViewRewrite != "" {
				return nil, fmt.Errorf("outer join %s/%s: view rewrite %q fired on an outer-join query",
					q.name, mode, res.Plan.ViewRewrite)
			}
			lat := make([]time.Duration, 0, warm)
			for i := 0; i < warm; i++ {
				t0 := time.Now()
				if _, err := eng.Query(context.Background(), q.sql, aggview.WithMode(mode)); err != nil {
					return nil, fmt.Errorf("outer join %s/%s warm: %w", q.name, mode, err)
				}
				lat = append(lat, time.Since(t0))
			}
			p50, p95, p99 := latencyPercentiles(lat)
			out = append(out, OuterJoinResult{
				Name:          q.name,
				Mode:          mode.String(),
				EstimatedCost: res.Plan.EstimatedCost,
				Rows:          int64(res.Len()),
				Reads:         res.IO.Reads,
				Hits:          res.IO.Hits,
				ViewRewrite:   res.Plan.ViewRewrite,
				P50MS:         p50,
				P95MS:         p95,
				P99MS:         p99,
			})
		}
	}
	return out, nil
}

// durabilityEngine builds one warehouse engine for the durability section:
// in-memory when dir is empty, durable (WAL in dir) otherwise. Both get a
// scratch table for the workload's inserts.
func durabilityEngine(dir string, lineitems int) (*aggview.Engine, error) {
	var eng *aggview.Engine
	if dir == "" {
		eng = aggview.Open(aggview.Config{PoolPages: 8})
	} else {
		var err error
		eng, err = aggview.OpenDurable(aggview.Config{PoolPages: 8, DataDir: dir})
		if err != nil {
			return nil, err
		}
	}
	spec := aggview.DefaultTPCD()
	spec.Lineitems = lineitems
	if err := eng.LoadTPCD(spec); err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		`create view part_qty (partkey, aqty) as
			select partkey, avg(qty) from lineitem group by partkey`,
		`create table audit_log (seq int, worker int)`,
	} {
		if _, err := eng.Exec(ddl); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// measureDurability runs the mixed workload on a WAL-backed and an
// in-memory engine at each concurrency level, then times a cold recovery
// of the durable engine's data directory.
func measureDurability(quick bool, levels []int, iters int) ([]DurabilityResult, *RecoveryResult, error) {
	lineitems := 1500
	if quick {
		lineitems = 400
	}
	queries := []string{
		`select p.brand, l.qty from lineitem l, part p, part_qty v
		 where l.partkey = p.partkey and v.partkey = p.partkey
		   and p.brand < 5 and l.qty < v.aqty`,
		`select c.nation, count(*) as n from customer c, orders o
		 where o.custkey = c.custkey group by c.nation order by n desc limit 3`,
	}

	dir, err := os.MkdirTemp("", "aggview-bench-wal-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	var out []DurabilityResult
	var seq atomic.Int64
	for _, variant := range []string{"memory", "wal"} {
		engDir := ""
		if variant == "wal" {
			engDir = dir
		}
		eng, err := durabilityEngine(engDir, lineitems)
		if err != nil {
			return nil, nil, fmt.Errorf("durability %s: %w", variant, err)
		}
		for _, n := range levels {
			var (
				wg    sync.WaitGroup
				total atomic.Int64
				errCh = make(chan error, n)
			)
			start := time.Now()
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						for qi := range queries {
							if _, err := eng.Query(context.Background(), queries[(qi+w)%len(queries)]); err != nil {
								errCh <- err
								return
							}
							total.Add(1)
						}
						ins := fmt.Sprintf("insert into audit_log values (%d, %d)", seq.Add(1), w)
						if _, err := eng.Exec(ins); err != nil {
							errCh <- err
							return
						}
						total.Add(1)
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errCh)
			if err := <-errCh; err != nil {
				return nil, nil, fmt.Errorf("durability %s N=%d: %w", variant, n, err)
			}
			out = append(out, DurabilityResult{
				Concurrency: n,
				Variant:     variant,
				Statements:  total.Load(),
				ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
				QPS:         float64(total.Load()) / elapsed.Seconds(),
			})
		}
		if variant == "wal" {
			if err := eng.Close(); err != nil {
				return nil, nil, err
			}
		}
	}

	var walBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			walBytes += info.Size()
		}
	}
	start := time.Now()
	rec, err := aggview.OpenDurable(aggview.Config{PoolPages: 8, DataDir: dir})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	recoverMS := float64(time.Since(start).Microseconds()) / 1000
	if err := rec.Close(); err != nil {
		return nil, nil, err
	}
	return out, &RecoveryResult{WALBytes: walBytes, RecoverMS: recoverMS}, nil
}

// preparedWorkload is the parameterized warehouse suite the prepared
// benchmark runs: the snapshot's view queries with their selectivity
// constants lifted into `?` placeholders, plus per-run argument vectors
// (rotated per iteration so runs do not degenerate to one constant).
var preparedWorkload = []struct {
	sql  string
	args [][]any
}{
	{`select p.brand, l.qty from lineitem l, part p, part_qty v
	  where l.partkey = p.partkey and v.partkey = p.partkey
	    and p.brand < ? and l.qty < v.aqty`,
		[][]any{{5}, {3}, {8}}},
	{`select v.aqty, o.value from part_qty v, order_value o, lineitem l
	  where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > ?`,
		[][]any{{45.0}, {30.0}, {48.0}}},
	{`select p.brand, max(v.aqty) from part p, part_qty v
	  where v.partkey = p.partkey group by p.brand having max(v.aqty) > ?`,
		[][]any{{10.0}, {20.0}, {5.0}}},
}

// inline renders one workload query with its arguments substituted as
// literals, for the ad-hoc (compile-every-time) variant.
func inline(sql string, args []any) string {
	for _, a := range args {
		sql = strings.Replace(sql, "?", fmt.Sprint(a), 1)
	}
	return sql
}

// measurePrepared times the four prepared-vs-adhoc variants at one
// concurrency level. The engine's cached warehouse pages are shared by all
// variants (the workload is IO-warm throughout), so the spread between
// variants isolates plan-acquisition cost — exactly the amortization the
// plan cache exists to provide.
func measurePrepared(wh *aggview.Engine, workers, iters int) ([]PreparedResult, error) {
	// Warm Stmts: prepared once, outside the timed window.
	warm := make([]*aggview.Stmt, len(preparedWorkload))
	for i, w := range preparedWorkload {
		st, err := wh.Prepare(w.sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %d: %w", i, err)
		}
		warm[i] = st
	}
	// Uncached Stmts: same statements on a cache-disabled engine sharing
	// the store and catalog — the prepared path minus the cache.
	nocache := wh.WithConfig(aggview.Config{PlanCacheSize: -1})
	bare := make([]*aggview.Stmt, len(preparedWorkload))
	for i, w := range preparedWorkload {
		st, err := nocache.Prepare(w.sql)
		if err != nil {
			return nil, err
		}
		bare[i] = st
	}

	variants := []struct {
		name string
		run  func(w, qi, it int) error
	}{
		{"adhoc", func(w, qi, it int) error {
			q := preparedWorkload[qi]
			_, err := wh.Query(context.Background(), inline(q.sql, q.args[it%len(q.args)]))
			return err
		}},
		{"prepared-cold", func(w, qi, it int) error {
			// A fresh derived engine has an empty plan cache, so the
			// Prepare compiles and the execution is this plan's only use.
			cold := wh.WithConfig(aggview.Config{})
			q := preparedWorkload[qi]
			st, err := cold.Prepare(q.sql)
			if err != nil {
				return err
			}
			_, err = st.QueryContext(context.Background(), q.args[it%len(q.args)]...)
			return err
		}},
		{"prepared-warm", func(w, qi, it int) error {
			q := preparedWorkload[qi]
			_, err := warm[qi].QueryContext(context.Background(), q.args[it%len(q.args)]...)
			return err
		}},
		{"cache-disabled", func(w, qi, it int) error {
			q := preparedWorkload[qi]
			_, err := bare[qi].QueryContext(context.Background(), q.args[it%len(q.args)]...)
			return err
		}},
	}

	var out []PreparedResult
	for _, v := range variants {
		var (
			wg    sync.WaitGroup
			total atomic.Int64
			errCh = make(chan error, workers)
		)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					for qi := range preparedWorkload {
						if err := v.run(w, (qi+w)%len(preparedWorkload), it); err != nil {
							errCh <- err
							return
						}
						total.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, PreparedResult{
			Concurrency: workers,
			Variant:     v.name,
			Queries:     total.Load(),
			ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
			QPS:         float64(total.Load()) / elapsed.Seconds(),
		})
	}
	return out, nil
}

// measureThroughput drives the query suite from `workers` goroutines
// against one shared engine, each looping `iters` times over the whole
// suite, and reports sustained end-to-end queries per second.
func measureThroughput(eng *aggview.Engine, queries []string, workers, iters int) (ThroughputResult, error) {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
		errCh = make(chan error, workers)
	)
	// Per-worker latency slices, merged after the window: no shared state
	// on the hot path, so recording does not perturb the contention being
	// measured.
	lats := make([][]time.Duration, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats[w] = make([]time.Duration, 0, iters*len(queries))
			for i := 0; i < iters; i++ {
				for qi := range queries {
					// Stagger starting points so workers do not convoy on
					// the same table pages in lockstep.
					t0 := time.Now()
					if _, err := eng.Query(context.Background(), queries[(qi+w)%len(queries)]); err != nil {
						errCh <- err
						return
					}
					lats[w] = append(lats[w], time.Since(t0))
					total.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if err := <-errCh; err != nil {
		return ThroughputResult{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	p50, p95, p99 := latencyPercentiles(all)
	return ThroughputResult{
		Concurrency: workers,
		Queries:     total.Load(),
		ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
		QPS:         float64(total.Load()) / elapsed.Seconds(),
		P50MS:       p50,
		P95MS:       p95,
		P99MS:       p99,
	}, nil
}
