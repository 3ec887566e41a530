package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"

	"aggview"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// kind is how a workload's operations reach the engine, which decides
// whether the plan cache can serve them.
type kind int

const (
	adhocUnique kind = iota // Engine.Query, a new statement text per operation: always a cache miss
	prepared                // Stmt.Query on statements prepared during set-up: always a cache hit
	adhocCached             // Engine.Query, a small set of repeated texts: a hit unless a commit intervened
)

// statement is one statement shape of a workload. Each of its variants —
// a parameter vector for prepared statements, a literal base for
// adhoc-plan's templates — becomes one query with its own reference answer.
type statement struct {
	name     string
	sql      string
	variants []any
}

// workload is one row of BENCHMARK.json's workload list with the sizes it
// runs at. Sizes are fixed per workload (never derived from the seed), so
// runs with different seeds do the same amount of work.
type workload struct {
	name, why string
	kind      kind
	lineitems int // TPC-D-like warehouse size; 0 selects the sales schema
	salesRows int
	poolPages int
	durable   bool
	stmts     []statement
	cycles    int // traced run: fixed operation count = cycles x rotation length
}

// The warehouse's two virtual aggregate views, as in the repo's snapshot
// benchmark: the paper's setting of a query joining aggregate views.
var warehouseViews = []string{
	`create view part_qty (partkey, aqty) as select partkey, avg(qty) from lineitem group by partkey`,
	`create view order_value (orderkey, value) as select orderkey, sum(price) from lineitem group by orderkey`,
}

// adhocTemplates join 3-6 relations of which 0-2 are aggregate views. %s
// takes a literal that is unique per operation but cannot change the
// answer: it is compared with a column holding whole numbers, and only its
// digits after the ninth decimal place vary (see query.text).
var adhocTemplates = []statement{
	{"view-join-filter", `select p.brand, l.qty from lineitem l, part p, part_qty v
		where l.partkey = p.partkey and v.partkey = p.partkey and p.brand < 5 and l.qty < v.aqty and l.qty > %s`,
		[]any{0.5, 10.5, 20.5}},
	{"two-views-join", `select v.aqty, o.value from part_qty v, order_value o, lineitem l
		where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > %s`,
		[]any{40.5, 44.5, 47.5}},
	{"grouped-having-over-view", `select p.brand, max(v.aqty) from part p, part_qty v
		where v.partkey = p.partkey and p.size > %s group by p.brand having max(v.aqty) > 10`,
		[]any{0.5, 10.5, 25.5}},
	{"star-4", `select c.nation, sum(l.qty) as q, count(*) as n from lineitem l, orders o, customer c, part p
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and p.brand < 10 and l.qty > %s
		group by c.nation`,
		[]any{5.5, 20.5, 35.5}},
	{"star-5", `select s.nation, c.segment, count(*) as n from lineitem l, orders o, customer c, part p, supplier s
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and l.suppkey = s.suppkey
		and p.size < 20 and l.qty > %s group by s.nation, c.segment`,
		[]any{5.5, 20.5, 35.5}},
	{"star-6-over-view", `select c.nation, max(v.aqty) as m from lineitem l, orders o, customer c, part p, supplier s, part_qty v
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.partkey = p.partkey and l.suppkey = s.suppkey
		and v.partkey = p.partkey and s.nation < 10 and l.qty > %s group by c.nation`,
		[]any{5.5, 20.5, 35.5}},
	// The paper's Example 1 (a correlated aggregate subquery, flattened by
	// the binder into a join with an aggregate view), over the warehouse.
	{"example1-nested", `select l.qty from lineitem l where l.discount < 0.03 and l.qty > %s
		and l.qty > (select avg(l2.qty) from lineitem l2 where l2.partkey = l.partkey)`,
		[]any{0.5, 10.5, 20.5}},
}

// execStatements are prepared during set-up and run with rotating
// parameters. Their number is odd so the median latency falls inside one
// statement's cluster rather than between two.
var execStatements = []statement{
	{"view-join-filter", `select p.brand, l.qty from lineitem l, part p, part_qty v
		where l.partkey = p.partkey and v.partkey = p.partkey and p.brand < ? and l.qty < v.aqty`,
		[]any{3, 5, 8}},
	{"two-views-join", `select v.aqty, o.value from part_qty v, order_value o, lineitem l
		where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > ?`,
		[]any{44, 46, 48}},
	{"grouped-having-over-view", `select p.brand, max(v.aqty) from part p, part_qty v
		where v.partkey = p.partkey group by p.brand having max(v.aqty) > ?`,
		[]any{10, 20, 30}},
	{"left-join-count", `select c.nation, count(o.orderkey) from customer c
		left join orders o on o.custkey = c.custkey and o.total > ? group by c.nation`,
		[]any{30000, 50000, 70000}},
	{"star-3-aggregate", `select c.nation, sum(l.qty) as q, count(*) as n from lineitem l, orders o, customer c
		where l.orderkey = o.orderkey and o.custkey = c.custkey and l.qty > ? group by c.nation`,
		[]any{10, 25, 40}},
}

// rollupQueries never mention the materialized view; the optimizer answers
// each from sales_rollup's partial rows. Every one selects count(*) as n so
// durable-rw can check the writer's groups (see instance.check).
var rollupQueries = []statement{
	{"rollup-exact", `select region, product, sum(amount) as total, count(*) as n from sales group by region, product`, nil},
	{"rollup-region", `select region, sum(amount) as total, count(*) as n, avg(qty) as avgq from sales group by region`, nil},
	{"rollup-filtered", `select product, count(*) as n from sales where region = 'r1' group by product`, nil},
	{"rollup-product", `select product, sum(amount) as total, count(*) as n from sales group by product`, nil},
	{"rollup-one-region", `select region, count(*) as n, avg(qty) as avgq from sales where region = 'r2' group by region`, nil},
}

const salesMatView = `create materialized view sales_rollup as
	select region, product, sum(amount) as total, count(*) as n, avg(qty) as avgq
	from sales group by region, product`

// durable-rw's paced writer: one commit of rowsPerCommit single-row INSERTs
// every 1/writerRate seconds. Its rows go to region 'w0' and products
// 'wp*', which the initial data never uses, so every group of every rollup
// query holds either only initial rows or only writer rows.
const (
	writerRate      = 100 // commits per second
	rowsPerCommit   = 4
	writerAmount    = 2.5
	checkpointBytes = 160 << 10 // several auto-checkpoints per run at the writer's log rate
)

var workloads = []*workload{
	{
		name: "adhoc-plan", kind: adhocUnique, lineitems: 400, poolPages: 256, stmts: adhocTemplates, cycles: 10,
		why: "Unique statement text per operation over a small warehouse that fits the pool: the plan cache always misses, so sql, binder and core (DP search, pull-up, push-down) do nearly all the work.",
	},
	{
		name: "warm-exec", kind: prepared, lineitems: 24000, poolPages: 4096, stmts: execStatements, cycles: 6,
		why: "Prepared statements, rotating parameters, warehouse held entirely by the pool: every run is a plan-cache hit, so exec's join and aggregate kernels do the work; core does none.",
	},
	{
		name: "cold-io", kind: prepared, lineitems: 24000, poolPages: 88, stmts: execStatements, cycles: 6,
		why: "warm-exec's statements and data with a pool a quarter of lineitem's pages: every scan misses and evicts and one join spills, so pages_per_op is the paper's measured page IO.",
	},
	{
		name: "rollup-hot", kind: adhocCached, salesRows: 40000, poolPages: 64, stmts: rollupQueries, cycles: 200,
		why: "Cached ad-hoc rollups answered from a materialized view's few rows: per-query fixed overhead (parse, plan-cache LRU, snapshot pin, governor, metrics registry, result conversion) dominates.",
	},
	{
		name: "durable-rw", kind: adhocCached, salesRows: 20000, poolPages: 64, durable: true, stmts: rollupQueries, cycles: 40,
		why: "One rollup reader beside a paced writer committing 4 INSERTs 100 times a second with fsync: each commit publishes a snapshot, invalidates cached plans, maintains the view and appends to the WAL.",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns the workload at smoke-test size.
func (w *workload) scaled(o options) *workload {
	if !o.tiny {
		return w
	}
	c := *w
	if c.lineitems > 1500 {
		c.lineitems, c.poolPages = 1500, c.poolPages*1500/w.lineitems
	}
	if c.salesRows > 3000 {
		c.salesRows = 3000
	}
	if c.kind == adhocUnique {
		// The 6-relation template alone outlasts a 200 ms window under the
		// race detector.
		c.stmts = slices.DeleteFunc(slices.Clone(c.stmts), func(s statement) bool { return s.name == "star-6-over-view" })
	}
	c.cycles = 1
	return &c
}

// setupSQL is the DDL and data that follow the warehouse load (if any); the
// traced run replays the same statements on its twin stack.
func (w *workload) setupSQL() []string {
	if w.lineitems > 0 {
		return warehouseViews
	}
	out := []string{`create table sales (region text, product text, day int, amount float, qty int)`}
	const batch = 2000
	for lo := 0; lo < w.salesRows; lo += batch {
		rows := make([]types.Row, 0, batch)
		for i := lo; i < lo+batch && i < w.salesRows; i++ {
			rows = append(rows, salesRow(i))
		}
		out = append(out, insertSQL(rows))
	}
	return append(out, `analyze`, salesMatView)
}

// salesRow is the i-th initial row of the sales fact table: 3 regions x 24
// products x 30 days. Amounts are .5-grained so sums of partial sums are
// exact.
func salesRow(i int) types.Row {
	return types.Row{
		types.NewString(fmt.Sprintf("r%d", i%3)), types.NewString(fmt.Sprintf("p%d", i%24)),
		types.NewInt(int64(i % 30)), types.NewFloat(float64(i%100) + 0.5), types.NewInt(int64(i%7 + 1)),
	}
}

// writerRow is the j-th row of the writer's k-th commit.
func writerRow(k, j int) types.Row {
	return types.Row{
		types.NewString("w0"), types.NewString(fmt.Sprintf("wp%d", j)),
		types.NewInt(int64(k % 30)), types.NewFloat(writerAmount), types.NewInt(1),
	}
}

// insertSQL renders rows as one INSERT INTO sales statement.
func insertSQL(rows []types.Row) string {
	var b strings.Builder
	b.WriteString("insert into sales values ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// userBytes is the encoded size of every row the sales table should hold:
// the initial rows plus the writer's acknowledged commits.
func (in *instance) userBytes() (n int64) {
	for i := 0; i < in.w.salesRows; i++ {
		n += int64(len(types.EncodeRow(nil, salesRow(i))))
	}
	for k := 0; k < int(in.acked.Load()); k++ {
		for j := 0; j < rowsPerCommit; j++ {
			n += int64(len(types.EncodeRow(nil, writerRow(k, j))))
		}
	}
	return n
}

// query is one entry of a workload's rotation: a statement with one
// parameter vector or literal base, and the answer it must return.
type query struct {
	name   string
	sql    string
	static bool          // durable-rw: its WHERE names an initial region, so the writer never moves its answer
	base   float64       // adhocUnique: the literal's whole part
	args   []any         // prepared: the parameter vector
	stmt   *aggview.Stmt // prepared
	want   answer
}

// text is the statement the k-th operation sends: adhoc-plan's templates
// get base + k/1e9, which is a new text every time and the same predicate
// every time, because the compared columns hold whole numbers.
func (q *query) text(k int) string {
	if !strings.Contains(q.sql, "%s") {
		return q.sql
	}
	return fmt.Sprintf(q.sql, fmt.Sprintf("%.9f", q.base+float64(k)*1e-9))
}

// instance is one set-up of a workload: an engine holding the data, the
// query rotation with reference answers, and the writer's progress
// counters that durable-rw's answer check reads.
type instance struct {
	w       *workload
	seed    int64
	eng     *aggview.Engine
	dir     string // durable-rw's data directory
	queries []query

	started, acked atomic.Int64 // writer commits begun / acknowledged
}

// setup opens an engine, loads the workload's data, runs its DDL, prepares
// its statements and computes a reference answer per query on an
// independent path: Traditional mode, row-at-a-time batches, no view
// rewrite. Its duration is the setup_s metric.
func (w *workload) setup(o options) (*instance, error) {
	in := &instance{w: w, seed: o.seed}
	cfg := aggview.Config{PoolPages: w.poolPages}
	if w.durable {
		var err error
		if in.dir, err = os.MkdirTemp(o.dataDir, w.name+"-"); err != nil {
			return nil, err
		}
		cfg.DataDir, cfg.CheckpointBytes = in.dir, checkpointBytes
		if in.eng, err = aggview.OpenDurable(cfg); err != nil {
			return nil, err
		}
	} else {
		in.eng = aggview.Open(cfg)
	}
	if w.lineitems > 0 {
		if err := in.eng.LoadTPCD(aggview.TPCDSpec{Seed: o.seed, Lineitems: w.lineitems}); err != nil {
			return nil, err
		}
	}
	for _, s := range w.setupSQL() {
		if _, err := in.eng.Exec(s); err != nil {
			return nil, fmt.Errorf("set-up statement %.40q: %w", s, err)
		}
	}
	if w.durable {
		if err := in.eng.Checkpoint(); err != nil {
			return nil, err
		}
	}
	// Interleave statements so consecutive operations differ in shape.
	nv := 1
	for _, s := range w.stmts {
		nv = max(nv, len(s.variants))
	}
	for v := 0; v < nv; v++ {
		for _, s := range w.stmts {
			q := query{name: s.name, sql: s.sql, static: strings.Contains(s.sql, "where region = 'r")}
			if len(s.variants) > 0 {
				val := s.variants[v%len(s.variants)]
				q.name = fmt.Sprintf("%s/%v", s.name, val)
				if w.kind == prepared {
					q.args = []any{val}
				} else {
					q.base = val.(float64)
				}
			}
			in.queries = append(in.queries, q)
		}
	}
	ref := in.eng.WithConfig(aggview.Config{Mode: aggview.Traditional, BatchSize: 1})
	ctx := context.Background()
	for i := range in.queries {
		q := &in.queries[i]
		res, err := ref.Query(ctx, q.text(0), aggview.WithParams(q.args...), aggview.WithoutViewRewrite())
		if err != nil {
			return nil, fmt.Errorf("reference answer of %s: %w", q.name, err)
		}
		q.want = answerOf(res, nil)
		if w.kind == prepared {
			if q.stmt, err = in.eng.Prepare(q.sql); err != nil {
				return nil, fmt.Errorf("prepare %s: %w", q.name, err)
			}
		}
	}
	return in, nil
}

func (in *instance) close() error { return in.eng.Close() }

// call sends the i-th operation's query through the public API.
func (in *instance) call(ctx context.Context, q *query, i int) (*aggview.Result, error) {
	if q.stmt != nil {
		return q.stmt.QueryContext(ctx, q.args...)
	}
	return in.eng.Query(ctx, q.text(i+1))
}

// answer is a result's row count and an order-insensitive checksum. Exact
// cells (ints, strings, bools, NULLs) add into a wrapping hash. Float cells
// add into a sum weighted by the row's exact hash and the column position,
// compared with a relative tolerance: two correct plans may add the same
// floats in a different order.
type answer struct {
	rows       int
	exact      uint64
	fsum, fabs float64
}

func (a answer) equal(b answer) bool {
	return a.rows == b.rows && a.exact == b.exact &&
		math.Abs(a.fsum-b.fsum) <= 1e-9*(math.Max(a.fabs, b.fabs)+1)
}

// answerOf checksums the rows of res that skip does not claim.
func answerOf(res *aggview.Result, skip func(row []any) bool) answer {
	var a answer
	for _, row := range res.Rows {
		if skip != nil && skip(row) {
			continue
		}
		a.rows++
		h := uint64(14695981039346656037)
		mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
		for j, c := range row {
			mix(uint64(j))
			switch v := c.(type) {
			case int64:
				mix(uint64(v))
			case string:
				for k := 0; k < len(v); k++ {
					mix(uint64(v[k]))
				}
			case bool:
				if v {
					mix(1)
				}
			case nil:
				mix(0xff)
			}
		}
		a.exact += h
		weight := 1 + float64(h>>11)/(1<<53)
		for j, c := range row {
			if v, ok := c.(float64); ok {
				a.fsum += weight * float64(j+1) * v
				a.fabs += weight * float64(j+1) * math.Abs(v)
			}
		}
	}
	return a
}

// check compares one timed operation's result with the reference. On
// durable-rw a result also holds the writer's groups, which move with every
// commit; they are taken out of the checksum and checked as a snapshot
// instead: each holds amount 2.5 and qty 1 per row, and together they hold
// exactly rowsPerCommit rows for each of a whole number of commits, no
// fewer than were acknowledged before the query began (lo) and no more
// than had begun when it returned (hi).
func (in *instance) check(q *query, res *aggview.Result, lo, hi int64) bool {
	if !in.w.durable {
		return answerOf(res, nil).equal(q.want)
	}
	col := map[string]int{}
	for j, name := range res.Columns {
		col[name] = j
	}
	var liveRows int64
	sane := true
	live := func(row []any) bool {
		isLive := false
		for _, c := range row {
			if s, ok := c.(string); ok && strings.HasPrefix(s, "w") {
				isLive = true
			}
		}
		if !isLive {
			return false
		}
		n, _ := row[col["n"]].(int64)
		liveRows += n
		if j, ok := col["total"]; ok && row[j] != writerAmount*float64(n) {
			sane = false
		}
		if j, ok := col["avgq"]; ok && row[j] != 1.0 {
			sane = false
		}
		return true
	}
	got := answerOf(res, live)
	commits := liveRows / rowsPerCommit
	if q.static {
		return got.equal(q.want) && liveRows == 0
	}
	return sane && got.equal(q.want) && liveRows%rowsPerCommit == 0 && commits >= lo && commits <= hi
}

// sizes is the data a workload ran over, per table as rows/pages, measured
// through the public API by a cold full scan of each table.
type sizes struct {
	Tables     map[string][2]int64 `json:"tables_rows_pages"`
	PoolPages  int                 `json:"pool_pages"`
	PoolShards int                 `json:"pool_shards"`
	Durable    bool                `json:"durable"`
	FileSystem string              `json:"data_dir_filesystem,omitempty"`
	Flush      string              `json:"flush_policy,omitempty"`
	WriterRate int                 `json:"writer_commits_per_s,omitempty"`
}

func (s sizes) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool=%d pages/%d shards", s.PoolPages, s.PoolShards)
	for _, t := range sortedKeys(s.Tables) {
		fmt.Fprintf(&b, " %s=%d rows/%d pages", t, s.Tables[t][0], s.Tables[t][1])
	}
	if s.Durable {
		fmt.Fprintf(&b, " fs=%s flush=%q writer=%d commits/s", s.FileSystem, s.Flush, s.WriterRate)
	}
	return b.String()
}

func (in *instance) sizes() (sizes, error) {
	s := sizes{Tables: map[string][2]int64{}, PoolPages: in.w.poolPages, PoolShards: storage.NewStore(in.w.poolPages).PoolShards(), Durable: in.w.durable}
	if in.w.durable {
		s.FileSystem, s.Flush, s.WriterRate = fileSystemOf(in.dir), "fsync on every commit (engine default)", writerRate
	}
	for _, t := range in.eng.Tables() {
		res, err := in.eng.Query(context.Background(), "select count(*) from "+t, aggview.WithColdCache())
		if err != nil {
			return s, fmt.Errorf("sizing %s: %w", t, err)
		}
		rows, _ := res.Rows[0][0].(int64)
		s.Tables[t] = [2]int64{rows, res.IO.Reads + res.IO.Hits}
	}
	return s, nil
}
