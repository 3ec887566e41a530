package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"aggview"
	"aggview/internal/binder"
	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/datagen"
	"aggview/internal/exec"
	"aggview/internal/lplan"
	"aggview/internal/matview"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/sql"
	"aggview/internal/storage"
	"aggview/internal/txn"
	"aggview/internal/types"
	"aggview/internal/wal"
)

// span is one timed interval of a traced operation. Every operation has
// exactly one root ("op"); its children are the public engine call
// ("aggview.Query" or "aggview.Txn") and the replay of the same statement
// on the twin stack ("twin"), whose children are the layer calls. Times are
// nanoseconds since the traced pass began.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps the current operation's spans and, per operation kind
// ("query" or "commit"), each span name's total time in every operation.
// Spans themselves are retained only while keep is set, which bounds
// memory on long passes; they live in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	op       int
	cur      []span
	keep     bool
	kept     []span
	perOp    map[string]map[string][]float64 // kind -> span name -> microseconds per operation
	sums     map[string]float64              // finish's scratch, reused across operations
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.cur)
	t.cur = append(t.cur, span{Workload: t.workload, Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.cur[id].End = int64(time.Since(t.t0)) }

// finish closes the operation: per span name it adds up this operation's
// time, and derives the glue: the engine call minus every layer the twin
// replayed for it.
func (t *tracer) finish(kind string) {
	if t.sums == nil {
		t.sums = map[string]float64{}
	}
	sums := t.sums
	clear(sums)
	var engine, layers float64
	for _, s := range t.cur {
		us := float64(s.End-s.Start) / 1e3
		sums[s.Name] += us
		switch {
		case s.Parent == 0 && s.Name != "twin":
			engine = us
		case s.Parent > 0 && t.cur[s.Parent].Name == "twin":
			layers += us
		}
	}
	sums["aggview.glue"] = engine - layers
	sums["engine"] = engine
	if t.perOp[kind] == nil {
		t.perOp[kind] = map[string][]float64{}
	}
	for name, us := range sums {
		t.perOp[kind][name] = append(t.perOp[kind][name], us)
	}
	if t.keep {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
	t.op++
}

// medianUS is the median per-operation time of a span name, over the
// operations in which it ran.
func (t *tracer) medianUS(kind, name string) float64 {
	if v := t.perOp[kind][name]; len(v) > 0 {
		return median(v)
	}
	return 0
}

// shares is each layer's share of the engine-call span, per operation kind.
func (t *tracer) shares() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for kind, names := range t.perOp {
		engine := sum(names["engine"])
		if engine == 0 {
			continue
		}
		out[kind] = map[string]float64{}
		for name, v := range names {
			if strings.Contains(name, ".") && !strings.HasPrefix(name, "aggview.") || name == "aggview.glue" {
				out[kind][name] = sum(v) / engine
			}
		}
		out[kind]["attributed"] = 1 - out[kind]["aggview.glue"]
	}
	return out
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// twin is a second stack the benchmark builds from the engine's own
// layers — storage, catalog, binder, optimizer, executor, WAL — holding
// the same data, so each layer call can be timed from outside the engine.
type twin struct {
	store *storage.Store
	cat   *catalog.Catalog
	opts  core.Options
	log   *wal.Log             // durable-rw only
	plans map[string]*twinPlan // the twin's plan cache, keyed like the engine's
	txnID int64

	logCost                        float64 // sum of ln(Full cost / Traditional cost) over compilations
	compiles, neverWorseViolations int
}

type twinPlan struct {
	root       lplan.Node
	paramTypes []types.Kind
}

// newTwin builds the twin with the workload's generators and set-up
// statements, mirroring an engine opened with a default Config.
func newTwin(in *instance, dir string) (*twin, error) {
	w := in.w
	t := &twin{store: storage.NewStore(w.poolPages), plans: map[string]*twinPlan{}}
	t.cat = catalog.New(t.store)
	t.opts = core.DefaultOptions()
	t.opts.PoolPages = w.poolPages
	t.cat.BeginWrite()
	if w.lineitems > 0 {
		if err := datagen.LoadTPCD(t.cat, datagen.TPCDSpec{Seed: in.seed, Lineitems: w.lineitems}); err != nil {
			return nil, err
		}
	}
	for _, s := range w.setupSQL() {
		if err := t.exec(s); err != nil {
			return nil, fmt.Errorf("twin set-up statement %.40q: %w", s, err)
		}
	}
	t.cat.Publish()
	if w.durable {
		var err error
		if t.log, _, err = wal.Open(dir, wal.Options{}); err != nil {
			return nil, err
		}
	}
	// The engine compiled its prepared statements during set-up.
	for i := range in.queries {
		if q := &in.queries[i]; q.stmt != nil && t.plans[q.sql] == nil {
			if _, err := t.compile(nil, 0, q.sql, q.sql); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func (t *twin) close() error {
	if t.log == nil {
		return nil
	}
	return t.log.Close()
}

// exec applies one set-up statement to the twin's catalog the way the
// engine's write path does.
func (t *twin) exec(src string) error {
	stmt, err := sql.Parse(src)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *sql.CreateTable:
		cols := make([]schema.Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = schema.Column{ID: schema.ColID{Name: c.Name}, Type: c.Type}
		}
		_, err = t.cat.CreateTable(s.Name, cols, s.PrimaryKey, nil)
	case *sql.CreateView:
		_, err = t.cat.CreateView(s.Name, s.Cols, s.Text)
	case *sql.Insert:
		err = t.insert(nil, 0, s)
	case *sql.Analyze:
		for _, name := range t.cat.TableNames() {
			tbl, _ := t.cat.Table(name)
			if err = t.cat.Analyze(tbl); err != nil {
				break
			}
		}
	case *sql.CreateMaterializedView:
		err = t.createMatView(s)
	default:
		err = fmt.Errorf("twin: unsupported statement %T", stmt)
	}
	return err
}

func (t *twin) createMatView(s *sql.CreateMaterializedView) error {
	def, err := matview.Bind(t.cat, s.Name, s.Text)
	if err != nil {
		return err
	}
	plan, err := core.Optimize(def.PartialQuery(), t.opts)
	if err != nil {
		return err
	}
	res, err := exec.New(t.store).Run(plan.Root)
	if err != nil {
		return err
	}
	backing, err := t.cat.CreateTable(def.Backing, def.BackingSchema(), nil, nil)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := t.cat.Insert(backing, row); err != nil {
			return err
		}
	}
	if err := t.cat.Analyze(backing); err != nil {
		return err
	}
	_, err = t.cat.CreateMatView(def.Name, s.Text, def.Backing, def.BaseTables)
	return err
}

// insert applies an INSERT inside the open write batch: the base rows
// ("catalog.write"), then incremental maintenance of every materialized
// view on the table ("matview.delta"). tr may be nil (set-up).
func (t *twin) insert(tr *tracer, parent int, s *sql.Insert) error {
	done := spanOf(tr, "catalog.write", parent)
	tbl, ok := t.cat.Table(s.Table)
	if !ok {
		return fmt.Errorf("twin: table %q not found", s.Table)
	}
	rows := make([]types.Row, len(s.Rows))
	for i, astRow := range s.Rows {
		rows[i] = make(types.Row, len(astRow))
		for j, e := range astRow {
			lit, ok := e.(sql.Lit)
			if !ok {
				return fmt.Errorf("twin: VALUES rows must be literals")
			}
			rows[i][j] = lit.Val
		}
		if err := t.cat.Insert(tbl, rows[i]); err != nil {
			return err
		}
	}
	done()
	views := t.cat.MatViewsOn(tbl.Name)
	if len(views) == 0 {
		return nil
	}
	defer spanOf(tr, "matview.delta", parent)()
	for _, mv := range views {
		def, err := matview.BindCatalog(t.cat, mv)
		if err != nil {
			return err
		}
		backing, _ := t.cat.Table(mv.Backing)
		delta, err := def.Delta(rows)
		if err != nil {
			return err
		}
		for _, row := range delta {
			if err := t.cat.Insert(backing, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanOf opens a span and returns the function that ends it; with a nil
// tracer both are no-ops.
func spanOf(tr *tracer, name string, parent int) func() {
	if tr == nil {
		return func() {}
	}
	id := tr.begin(name, parent)
	return func() { tr.end(id) }
}

// viewPlans mirrors the engine's rewrite layer: every materialized view
// that can answer q contributes view-backed plan candidates.
func (t *twin) viewPlans(cat catalog.Reader, q *qblock.Query) []core.ViewPlan {
	var out []core.ViewPlan
	for _, name := range cat.MatViewNames() {
		mv, _ := cat.MatView(name)
		backing, ok := cat.Table(mv.Backing)
		if !ok {
			continue
		}
		def, err := matview.BindCatalog(cat, mv)
		if err != nil {
			continue
		}
		cands, ok := def.Rewrite(backing, q)
		if !ok {
			continue
		}
		for _, c := range cands {
			if lplan.Validate(c.Root) == nil {
				out = append(out, core.ViewPlan{Name: c.Name, Root: c.Root})
			}
		}
	}
	return out
}

// compile runs parse -> bind -> view rewrite -> optimize with one span per
// layer, caches the frozen plan under key, and (outside any span) optimizes
// the same query in Traditional mode to check the paper's guarantee that
// the chosen plan is never costlier than the traditional one.
func (t *twin) compile(tr *tracer, parent int, key, text string) (*twinPlan, error) {
	done := spanOf(tr, "sql.parse", parent)
	stmt, err := sql.Parse(text)
	done()
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("twin: not a SELECT: %.40q", text)
	}
	snap := t.cat.Snapshot()
	done = spanOf(tr, "binder.bind", parent)
	bound, err := binder.BindSelect(snap, sel)
	done()
	if err != nil {
		return nil, err
	}
	opts := t.opts
	if len(snap.MatViewNames()) > 0 {
		done = spanOf(tr, "matview.rewrite", parent)
		opts.ViewPlans = t.viewPlans(snap, bound.Query)
		done()
	}
	done = spanOf(tr, "core.optimize", parent)
	plan, err := core.Optimize(bound.Query, opts)
	done()
	if err != nil {
		return nil, err
	}
	lplan.Freeze(plan.Root)
	cp := &twinPlan{root: plan.Root, paramTypes: bound.ParamTypes}
	t.plans[key] = cp

	opts.Mode = core.ModeTraditional
	trad, err := core.Optimize(bound.Query, opts)
	if err != nil {
		return nil, err
	}
	t.compiles++
	if plan.Cost > trad.Cost*(1+1e-9) {
		t.neverWorseViolations++
	}
	if plan.Cost > 0 && trad.Cost > 0 {
		t.logCost += math.Log(plan.Cost / trad.Cost)
	}
	return cp, nil
}

// replayQuery repeats on the twin the layer calls the engine's CacheStatus
// says it made for this query: a hit skips binding and optimization (and,
// for a prepared statement, parsing); anything else compiles.
func (t *twin) replayQuery(tr *tracer, parent int, q *query, text, status string) error {
	key := q.sql
	if q.stmt == nil {
		key = text
	}
	cp := t.plans[key]
	var err error
	switch {
	case status != "hit":
		cp, err = t.compile(tr, parent, key, text)
	case cp == nil:
		// The engine compiled this statement before tracing began.
		cp, err = t.compile(nil, 0, key, text)
	}
	if err != nil {
		return err
	}
	if status == "hit" && q.stmt == nil {
		done := spanOf(tr, "sql.parse", parent)
		_, err := sql.Parse(text)
		done()
		if err != nil {
			return err
		}
	}
	params := make([]types.Value, len(q.args))
	for i, a := range q.args {
		// Prepared-statement parameters are ints; like the engine, coerce
		// one into a slot the binder inferred to be a float.
		if params[i] = types.NewInt(int64(a.(int))); cp.paramTypes[i] == types.KindFloat {
			params[i] = types.NewFloat(float64(a.(int)))
		}
	}
	defer spanOf(tr, "exec.run", parent)()
	sess := t.store.NewSession(nil)
	defer sess.Close()
	_, err = exec.New(t.store).WithSession(sess).WithParams(params).Run(cp.root)
	return err
}

// replayCommit repeats the writer's k-th transaction on the twin in the
// engine's commit order: apply to a private batch while a recorder buffers
// the log records, append the framed group, fsync, checkpoint if the log
// grew past the threshold, publish.
func (t *twin) replayCommit(tr *tracer, parent, k int) error {
	t.cat.BeginWrite()
	rec := txn.NewRecorder(t.cat.Version)
	t.cat.SetLogger(rec)
	for j := 0; j < rowsPerCommit; j++ {
		done := spanOf(tr, "sql.parse", parent)
		stmt, err := sql.Parse(insertSQL([]types.Row{writerRow(k, j)}))
		done()
		if err == nil {
			err = t.insert(tr, parent, stmt.(*sql.Insert))
		}
		if err != nil {
			t.cat.SetLogger(nil)
			t.cat.Discard()
			return err
		}
	}
	t.cat.SetLogger(nil)
	recs := rec.Records()

	done := spanOf(tr, "wal.append", parent)
	t.txnID++
	_, err := t.log.Append(recs[0].Version, wal.TxnBegin{ID: t.txnID})
	for _, lr := range recs {
		if err == nil {
			_, err = t.log.Append(lr.Version, lr.Rec)
		}
	}
	if err == nil {
		_, err = t.log.Append(recs[len(recs)-1].Version, wal.TxnCommit{ID: t.txnID})
	}
	done()
	if err == nil {
		done = spanOf(tr, "wal.sync", parent)
		err = t.log.Sync()
		done()
	}
	if err == nil && t.log.SizeSinceCheckpoint() >= checkpointBytes {
		done = spanOf(tr, "wal.checkpoint", parent)
		err = t.log.WriteCheckpoint(t.cat.EncodeSnapshot())
		done()
	}
	if err != nil {
		t.cat.Discard()
		return err
	}
	done = spanOf(tr, "catalog.publish", parent)
	t.cat.Publish()
	done()
	return nil
}

// scanCost times page reads through the storage API over every table of
// the twin: a full scan of each on a dropped pool (every page a miss), then
// repeated reads of a prefix that fits the pool (every page a hit).
func (t *twin) scanCost() (hitNS, missNS float64) {
	snap := t.cat.Snapshot()
	var hits, misses int64
	var hitTime, missTime time.Duration
	for _, name := range snap.TableNames() {
		tbl, _ := snap.Table(name)
		pages := tbl.File.Pages()
		t.store.ForceDropCaches()
		sess := t.store.NewSession(nil)
		t0 := time.Now()
		for p := 0; p < pages; p++ {
			_, _ = sess.ReadPage(tbl.File, p) // page p exists: p < Pages()
		}
		missTime += time.Since(t0)
		misses += sess.Stats().Reads
		sess.Close()

		resident := min(pages, t.store.PoolPages()/(2*t.store.PoolShards()))
		t.store.ForceDropCaches()
		sess = t.store.NewSession(nil)
		for p := 0; p < resident; p++ {
			_, _ = sess.ReadPage(tbl.File, p)
		}
		before := sess.Stats().Hits
		t0 = time.Now()
		for rep := 0; rep < 8; rep++ {
			for p := 0; p < resident; p++ {
				_, _ = sess.ReadPage(tbl.File, p)
			}
		}
		hitTime += time.Since(t0)
		hits += sess.Stats().Hits - before
		sess.Close()
	}
	if hits > 0 {
		hitNS = float64(hitTime) / float64(hits)
	}
	if misses > 0 {
		missNS = float64(missTime) / float64(misses)
	}
	return hitNS, missNS
}

// counts are the exact counters of the traced pass's fixed part, taken at
// the same boundaries as the spans.
type counts struct {
	queries, commits, failed   int64
	plans, cacheHits, rewrites int64
	reads, writes, hits, spill int64
	rowsExamined, rowsOut      int64
	walWrites, invalidations   int64
}

// perLayerNames lists every per-layer metric with its unit; a traced run
// reports all of them on every workload (zero where a layer does not run).
var perLayerNames = map[string]string{
	"sql.parse_us": "us", "binder.bind_us": "us",
	"core.optimize_us": "us", "core.plans_considered": "count", "core.cost_ratio": "ratio", "core.never_worse_violations": "count",
	"plancache.hit_ratio": "ratio", "plancache.invalidations_per_commit": "ratio",
	"matview.rewrite_us": "us", "matview.rewrite_ratio": "ratio", "matview.delta_us": "us",
	"exec.run_us": "us", "exec.rows_examined_per_row_out": "ratio",
	"storage.hit_ratio": "ratio", "storage.reads_per_op": "pages", "storage.spill_pages_per_op": "pages",
	"storage.scan_hit_ns_per_page": "ns", "storage.scan_miss_ns_per_page": "ns",
	"catalog.publish_us": "us", "txn.begin_wait_us": "us", "txn.commit_us": "us",
	"wal.append_us": "us", "wal.sync_us": "us", "wal.writes_per_commit": "count", "wal.checkpoints": "count",
	"wal.checkpoint_ms": "ms", "wal.recover_ms": "ms", "wal.stored_bytes_per_user_byte": "ratio",
	"aggview.glue_us": "us", "aggview.alloc_kb_per_op": "KiB",
	"trace.attributed_share": "ratio", "trace.overhead_ratio": "ratio",
}

// traceRun is the traced run: one client, a fixed operation count whose
// counters therefore repeat exactly, then the same rotation until the
// time budget ends so the layer timings rest on more samples.
func (w *workload) traceRun(o options) (*workloadResult, error) {
	w = w.scaled(o)
	in, err := w.setup(o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tw, err := newTwin(in, in.dir+"-twin")
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	res := &workloadResult{Metrics: map[string]metric{}}
	if res.Sizes, err = in.sizes(); err != nil {
		return nil, err
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: perLayerNames[name]} }
	for name := range perLayerNames {
		set(name, 0)
	}

	// The rotation: the queries in order and, on durable-rw, one commit
	// after each round of queries.
	rotation := len(in.queries)
	if w.durable {
		rotation++
	}
	isCommit := func(i int) bool { return w.durable && i%rotation == rotation-1 }
	ctx := context.Background()
	// plain runs the i-th operation without spans; the twin follows the
	// engine through the commit so both keep holding the same data.
	plain := func(i int) error {
		if !isCommit(i) {
			_, err := in.call(ctx, &in.queries[i%rotation], i)
			return err
		}
		if err := in.commit(ctx, i/rotation); err != nil {
			return err
		}
		return tw.replayCommit(nil, 0, i/rotation)
	}

	// Two untraced rounds first: one to fill caches, one whose allocation
	// is measured (TotalAlloc is exact, so one round is enough).
	var mem0, mem1 runtime.MemStats
	i := 0
	for ; i < 2*rotation; i++ {
		if i == rotation {
			runtime.ReadMemStats(&mem0)
		}
		if err := plain(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.ReadMemStats(&mem1)
	set("aggview.alloc_kb_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(rotation))

	// The fixed part: w.cycles untraced rounds alternating with w.cycles
	// traced rounds, so both see the same operations and the same drift in
	// the data; their time ratio is the tracing overhead. Then traced
	// rounds only, until the time budget ends.
	tr := &tracer{workload: w.name, t0: time.Now(), keep: true, perOp: map[string]map[string][]float64{}}
	var c counts
	var tracedTime, untracedTime time.Duration
	metrics0, wal0, seg0 := in.eng.Metrics(), in.eng.WALWrites(), lastSegment(in.dir)
	budget := time.Duration(o.seconds * float64(time.Second))
	first, endOfFixed := i, i+2*w.cycles*rotation
	// endFixed closes the fixed part: its counters freeze and spans are no
	// longer kept.
	endFixed := func() {
		d := in.eng.Metrics().Sub(metrics0)
		c.invalidations, c.walWrites = d.PlanCacheInvalidations, in.eng.WALWrites()-wal0
		tr.keep = false
	}
	for ; i < endOfFixed || time.Since(tr.t0) < budget; i++ {
		if i == endOfFixed {
			endFixed()
		}
		t0 := time.Now()
		if i < endOfFixed && (i-first)/rotation%2 == 0 {
			if err := plain(i); err != nil {
				return nil, fmt.Errorf("untraced round: %w", err)
			}
			if isCommit(i) {
				c.commits++
			} else {
				untracedTime += time.Since(t0)
			}
			continue
		}
		root := tr.begin("op", -1)
		if isCommit(i) {
			e := tr.begin("aggview.Txn", root)
			err := in.tracedCommit(ctx, tr, e, i/rotation)
			tr.end(e)
			if tr.keep {
				c.commits++
				if err != nil {
					c.failed++
				}
			}
			t := tr.begin("twin", root)
			if err := tw.replayCommit(tr, t, i/rotation); err != nil {
				return nil, fmt.Errorf("twin commit: %w", err)
			}
			tr.end(t)
			tr.end(root)
			tr.finish("commit")
			continue
		}
		q := &in.queries[i%rotation]
		lo := in.acked.Load()
		e := tr.begin("aggview.Query", root)
		r, err := in.call(ctx, q, i)
		tr.end(e)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", q.name, err)
		}
		if tr.keep {
			tracedTime += time.Since(t0)
			c.add(r, in.check(q, r, lo, in.started.Load()))
		}
		t := tr.begin("twin", root)
		if err := tw.replayQuery(tr, t, q, q.text(i+1), r.Plan.CacheStatus); err != nil {
			return nil, fmt.Errorf("twin %s: %w", q.name, err)
		}
		tr.end(t)
		tr.end(root)
		tr.finish("query")
	}

	if tr.keep {
		endFixed()
	}
	res.Attempted, res.Failed = c.queries+c.commits, c.failed
	set("sql.parse_us", tr.medianUS("query", "sql.parse"))
	set("binder.bind_us", tr.medianUS("query", "binder.bind"))
	set("core.optimize_us", tr.medianUS("query", "core.optimize"))
	set("matview.rewrite_us", tr.medianUS("query", "matview.rewrite"))
	set("exec.run_us", tr.medianUS("query", "exec.run"))
	set("aggview.glue_us", tr.medianUS("query", "aggview.glue"))
	set("core.plans_considered", float64(c.plans)/float64(c.queries))
	set("core.never_worse_violations", float64(tw.neverWorseViolations))
	if tw.compiles > 0 {
		set("core.cost_ratio", math.Exp(tw.logCost/float64(tw.compiles)))
	}
	set("plancache.hit_ratio", float64(c.cacheHits)/float64(c.queries))
	set("matview.rewrite_ratio", float64(c.rewrites)/float64(c.queries))
	set("exec.rows_examined_per_row_out", float64(c.rowsExamined)/float64(max(c.rowsOut, 1)))
	set("storage.hit_ratio", float64(c.hits)/float64(max(c.hits+c.reads, 1)))
	set("storage.reads_per_op", float64(c.reads)/float64(c.queries))
	set("storage.spill_pages_per_op", float64(c.spill)/float64(c.queries))
	hitNS, missNS := tw.scanCost()
	set("storage.scan_hit_ns_per_page", hitNS)
	set("storage.scan_miss_ns_per_page", missNS)
	set("trace.overhead_ratio", tracedTime.Seconds()/untracedTime.Seconds()-1)
	res.Shares = tr.shares()
	set("trace.attributed_share", res.Shares["query"]["attributed"])
	if w.durable {
		set("matview.delta_us", tr.medianUS("commit", "matview.delta"))
		set("catalog.publish_us", tr.medianUS("commit", "catalog.write")+tr.medianUS("commit", "catalog.publish"))
		set("txn.begin_wait_us", tr.medianUS("commit", "aggview.Begin"))
		set("txn.commit_us", tr.medianUS("commit", "engine"))
		set("wal.append_us", tr.medianUS("commit", "wal.append"))
		set("wal.sync_us", tr.medianUS("commit", "wal.sync"))
		set("wal.checkpoint_ms", tr.medianUS("commit", "wal.checkpoint")/1e3)
		set("wal.writes_per_commit", float64(c.walWrites)/float64(c.commits))
		set("plancache.invalidations_per_commit", float64(c.invalidations)/float64(c.commits))
		set("wal.checkpoints", float64(lastSegment(in.dir)-seg0))
		ratio, recovery, err := in.reopenCheck()
		if err != nil {
			return nil, fmt.Errorf("reopen check: %w", err)
		}
		set("wal.recover_ms", ms(recovery))
		set("wal.stored_bytes_per_user_byte", ratio)
	}
	res.Correct = c.failed == 0 && tw.neverWorseViolations == 0
	res.spans = tr.kept
	if err := tw.close(); err != nil {
		return nil, err
	}
	return res, in.close()
}

// add folds one traced query's result into the counters.
func (c *counts) add(r *aggview.Result, ok bool) {
	c.queries++
	if !ok {
		c.failed++
	}
	c.plans += int64(r.Plan.Search.PlansConsidered)
	if r.Plan.CacheStatus == "hit" {
		c.cacheHits++
	}
	if r.Plan.ViewRewrite != "" {
		c.rewrites++
	}
	c.reads, c.writes, c.hits = c.reads+r.IO.Reads, c.writes+r.IO.Writes, c.hits+r.IO.Hits
	c.rowsOut += int64(len(r.Rows))
	for _, op := range r.Ops {
		c.spill += op.SpillReads + op.SpillWrites
		if strings.HasPrefix(op.Label, "Scan") {
			c.rowsExamined += op.RowsOut
		}
	}
}

// tracedCommit is instance.commit with a span around each public call.
func (in *instance) tracedCommit(ctx context.Context, tr *tracer, parent, k int) error {
	in.started.Add(1)
	done := spanOf(tr, "aggview.Begin", parent)
	tx, err := in.eng.Begin(ctx)
	done()
	if err != nil {
		return err
	}
	for j := 0; j < rowsPerCommit; j++ {
		done = spanOf(tr, "aggview.Exec", parent)
		_, err = tx.Exec(insertSQL([]types.Row{writerRow(k, j)}))
		done()
		if err != nil {
			_ = tx.Rollback() // the Exec error is the one to report
			return err
		}
	}
	done = spanOf(tr, "aggview.Commit", parent)
	err = tx.Commit()
	done()
	if err == nil {
		in.acked.Add(1)
	}
	return err
}
