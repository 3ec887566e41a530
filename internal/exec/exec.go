package exec

import (
	"fmt"
	"time"

	"aggview/internal/expr"
	"aggview/internal/govern"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Executor runs plans against a store.
type Executor struct {
	store *storage.Store
	// pg is the page-access surface every operator IO goes through: the raw
	// store by default (unattributed, store-global accounting), or a
	// query-scoped storage.Session attached via WithSession, which layers
	// the query's governance hook and private IO counters on each access.
	pg storage.Pager
	// budgetBytes is the memory an operator may hold before spilling,
	// mirroring the cost model's PoolPages budget.
	budgetBytes int
	// batchSize is the target rows per Batch. DefaultBatchSize unless
	// overridden via WithBatchSize (a size of 1 is the row-at-a-time
	// reference configuration used by the differential harness).
	batchSize int
	// gov, when set, is ticked once per output batch (cancellation and row
	// limits, with an exact cutoff inside the final batch); page-IO
	// granularity checks run inside the storage layer via the session's IO
	// hook. A nil governor means ungoverned.
	gov *govern.Governor
	// col, when set, receives per-operator runtime metrics: every operator
	// is wrapped in a metering iterator registered against its plan node.
	col *obs.Collector
	// params holds the values of the plan's `?` placeholders for this run.
	// Compiled expressions read them as they evaluate, so one Program serves
	// runs with different arguments.
	params []types.Value
	// arenas tracks the pooled row-arena slabs carved by this executor's
	// operators; the cursor returns them on Close. See arenaRecycler.
	arenas arenaRecycler
}

// New creates an executor whose operators spill once they exceed the
// store's buffer budget.
func New(store *storage.Store) *Executor {
	return &Executor{
		store:       store,
		pg:          store,
		budgetBytes: store.PoolPages() * storage.PageSize,
		batchSize:   DefaultBatchSize,
	}
}

// WithGovernor attaches a per-query governor and returns the executor.
func (e *Executor) WithGovernor(g *govern.Governor) *Executor {
	e.gov = g
	return e
}

// WithSession routes every page access (scans and spill writes) through a
// query-scoped storage session, so concurrent queries
// on one store are accounted and governed independently.
func (e *Executor) WithSession(se *storage.Session) *Executor {
	if se != nil {
		e.pg = se
	}
	return e
}

// WithCollector attaches a per-query metrics collector and returns the
// executor. Every operator built afterwards is wrapped in a metering
// iterator keyed by its plan node.
func (e *Executor) WithCollector(c *obs.Collector) *Executor {
	e.col = c
	return e
}

// WithParams supplies values for the plan's `?` placeholders and returns
// the executor. Neither the plan tree nor its compiled Program is touched.
func (e *Executor) WithParams(vals []types.Value) *Executor {
	e.params = vals
	return e
}

// WithBatchSize overrides the target rows per batch and returns the
// executor. Sizes below 1 are ignored. Batch size never changes results,
// IO, or spill behavior — only the granularity of inter-operator calls —
// and the differential harness holds the engine to that by running every
// workload at size 1 against the default.
func (e *Executor) WithBatchSize(n int) *Executor {
	if n > 0 {
		e.batchSize = n
	}
	return e
}

// Result is a fully materialized query result.
type Result struct {
	Schema schema.Schema
	Rows   []types.Row
}

// Run executes the plan and materializes its output. Rows are cloned out
// of the cursor: cursor rows live in arena slabs that are recycled on
// Close, and Run's result must outlive the cursor.
func (e *Executor) Run(n lplan.Node) (*Result, error) {
	cur, err := e.OpenCursor(n)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := &Result{Schema: cur.Schema()}
	for {
		row, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		res.Rows = append(res.Rows, row.Clone())
	}
}

// Cursor is a streaming handle over an open operator tree. It pulls whole
// batches from the tree and hands rows out one at a time, ticking the
// governor once per batch (cancellation, row limits) rather than once per
// row. Row-limit cutoffs are exact: when a batch crosses MaxRowsOut, the
// allowed prefix is still delivered row by row and the limit error
// surfaces on the pull after the last permitted row — byte-identical
// behavior to a row-at-a-time executor. Close releases operator resources
// (spill files) and is idempotent; it must be called even when Next
// returns an error.
type Cursor struct {
	it      BatchIterator
	ex      *Executor
	sch     schema.Schema
	b       *Batch
	pos     int
	eos     bool
	pending error // governance error to surface after the allowed prefix
	closed  bool
}

// Program is a plan compiled once for execution: its legality checked,
// every operator labelled, column positions resolved and every expression
// compiled against its input schema. Nothing in it is written by a run, so
// any number of runs may open one Program at once; what a run owns — the
// parameter vector, the session, the governor, the collector — comes with
// its Executor, and what it allocates is the iterators.
type Program struct {
	root *op
	sch  schema.Schema
}

// op is one compiled operator: its plan node (the key its metrics are
// registered under), its Describe() label, newIter, which builds the
// operator's iterator for one run, and order, the column positions its
// output is sorted on by construction (nil = no guaranteed order).
type op struct {
	node    lplan.Node
	label   string
	newIter func(e *Executor) BatchIterator
	order   []int
}

// Compile validates the plan and compiles every operator. It is the one
// place the executor resolves columns and compiles expressions, for frozen
// and unfrozen trees alike: the engine compiles a plan once, before it
// publishes it; OpenCursor compiles the tree it is handed.
func Compile(n lplan.Node) (*Program, error) {
	if err := lplan.Validate(n); err != nil {
		return nil, fmt.Errorf("exec: invalid plan: %w", err)
	}
	root, err := compileOp(n)
	if err != nil {
		return nil, err
	}
	return &Program{root: root, sch: n.Schema()}, nil
}

// compileOp compiles a plan node and, through the per-type compilers, its
// children.
func compileOp(n lplan.Node) (*op, error) {
	var o *op
	var err error
	switch t := n.(type) {
	case *lplan.Scan:
		o, err = compileScan(t)
	case *lplan.Filter:
		o, err = compileFilter(t)
	case *lplan.Project:
		o, err = compileProject(t)
	case *lplan.Sort:
		o, err = compileSort(t)
	case *lplan.Join:
		o, err = compileJoin(t)
	case *lplan.GroupBy:
		o, err = compileGroupBy(t)
	default:
		err = fmt.Errorf("exec: unknown node type %T", n)
	}
	if err != nil {
		return nil, err
	}
	o.node, o.label = n, n.Describe()
	return o, nil
}

// OpenCursor compiles the plan and opens it: Compile, then Open.
func (e *Executor) OpenCursor(n lplan.Node) (*Cursor, error) {
	p, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return e.Open(p)
}

// Open builds the program's iterator tree for this run, opens it, and
// returns a streaming cursor. On Open failure the partially opened tree is
// closed before returning, so spill files never leak.
func (e *Executor) Open(p *Program) (*Cursor, error) {
	it := e.build(p.root)
	if err := it.Open(); err != nil {
		// A partially opened operator tree (e.g. a grace join that spilled
		// its build side before its probe failed) must still drop its spills
		// — and any arena slabs carved while materializing (hash builds run
		// inside Open).
		it.Close()
		e.arenas.release()
		return nil, err
	}
	return &Cursor{it: it, ex: e, sch: p.sch, b: getBatch()}, nil
}

// Schema returns the output schema of the plan.
func (c *Cursor) Schema() schema.Schema { return c.sch }

// Next returns the next row. ok is false at end of stream.
func (c *Cursor) Next() (types.Row, bool, error) {
	for {
		if c.pos < len(c.b.Rows) {
			row := c.b.Rows[c.pos]
			c.pos++
			return row, true, nil
		}
		if c.pending != nil {
			return nil, false, c.pending
		}
		if c.eos {
			return nil, false, nil
		}
		if err := c.it.NextBatch(c.b); err != nil {
			return nil, false, err
		}
		c.pos = 0
		if c.b.Len() == 0 {
			c.eos = true
			continue
		}
		allowed, err := c.ex.gov.TickRows(int64(c.b.Len()))
		if err != nil {
			// Deliver the in-budget prefix, then surface the error.
			c.b.Rows = c.b.Rows[:allowed]
			c.pending = err
		}
	}
}

// Close releases the operator tree's resources. Safe to call repeatedly.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	putBatch(c.b)
	c.b = nil
	err := c.it.Close()
	// Safe only now: the operator tree is gone, the engine has copied every
	// row it hands out before closing, and nothing else can reference rows
	// carved from this executor's slabs.
	c.ex.arenas.release()
	return err
}

// build makes a compiled operator's iterator for this run, wrapped in a
// metering iterator when a collector is attached (children build through
// here too, so they pick up their own wrappers).
func (e *Executor) build(o *op) BatchIterator {
	it := o.newIter(e)
	if e.col == nil {
		return it
	}
	return &meteredIter{in: it, st: e.col.Register(o.node, o.label), col: e.col}
}

func colIndexes(s schema.Schema, cols []schema.ColID) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		j, err := s.IndexOf(c)
		if err != nil {
			return nil, err
		}
		if j < 0 {
			return nil, fmt.Errorf("exec: column %s not in schema %s", c, s)
		}
		out[i] = j
	}
	return out, nil
}

// compilePreds compiles a conjunct list into a single row filter over s.
func compilePreds(preds []expr.Expr, s schema.Schema) (expr.Predicate, error) {
	fs := make([]expr.Predicate, len(preds))
	for i, p := range preds {
		var err error
		if fs[i], err = expr.CompilePredicate(p, s); err != nil {
			return nil, err
		}
	}
	return func(row types.Row, params []types.Value) (bool, error) {
		for _, f := range fs {
			ok, err := f(row, params)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}, nil
}

// scanIter reads a base table, filters, optionally appends $tid, projects.
// It is fully vectorized: one NextBatch call consumes as many storage rows
// as it takes to fill the batch (or hit end of file).
type scanIter struct {
	exec   *Executor
	node   *lplan.Scan
	filter expr.Predicate
	proj   []int // indexes into the (possibly tid-extended) base row; nil = all
	sc     *storage.Scanner
	arena  rowArena // backs tid-extended and projected output rows
}

func compileScan(s *lplan.Scan) (*op, error) {
	base := s.Table.Schema.Rename(s.Alias)
	if s.WithTID {
		base = append(base, schema.Column{
			ID: schema.ColID{Rel: s.Alias, Name: lplan.TIDColumn}, Type: types.KindInt})
	}
	filter, err := compilePreds(s.Filter, base)
	if err != nil {
		return nil, err
	}
	var proj []int
	if s.Proj != nil {
		proj, err = colIndexes(base, s.Proj)
		if err != nil {
			return nil, err
		}
	}
	return &op{newIter: func(e *Executor) BatchIterator {
		return &scanIter{exec: e, node: s, filter: filter, proj: proj, arena: rowArena{rec: &e.arenas}}
	}}, nil
}

func (it *scanIter) Open() error {
	it.sc = it.exec.pg.NewScanner(it.node.Table.File)
	return nil
}

func (it *scanIter) NextBatch(dst *Batch) error {
	dst.Reset()
	target := it.exec.batchSize
	for dst.Len() < target {
		row, rid, ok, err := it.sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if it.node.WithTID {
			ext := it.arena.carve(len(row) + 1)
			copy(ext, row)
			ext[len(row)] = types.NewInt(rid)
			row = ext
		}
		keep, err := it.filter(row, it.exec.params)
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		if it.proj != nil {
			out := it.arena.carve(len(it.proj))
			for i, j := range it.proj {
				out[i] = row[j]
			}
			row = out
		}
		dst.Append(row)
	}
	return nil
}

func (it *scanIter) Close() error { return nil }

// filterIter applies residual predicates batch-at-a-time: it keeps pulling
// input batches until the output batch is full or the input is exhausted,
// so a selective filter still hands full batches downstream. It keeps its
// input's order.
type filterIter struct {
	in      BatchIterator
	pred    expr.Predicate
	params  []types.Value
	target  int
	scratch *Batch
	done    bool
}

func compileFilter(f *lplan.Filter) (*op, error) {
	in, err := compileOp(f.In)
	if err != nil {
		return nil, err
	}
	pred, err := compilePreds(f.Preds, f.In.Schema())
	if err != nil {
		return nil, err
	}
	return &op{order: in.order, newIter: func(e *Executor) BatchIterator {
		return &filterIter{in: e.build(in), pred: pred, params: e.params, target: e.batchSize}
	}}, nil
}

func (it *filterIter) Open() error {
	it.scratch = getBatch()
	it.done = false
	return it.in.Open()
}

func (it *filterIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for !it.done && dst.Len() < it.target {
		if err := it.in.NextBatch(it.scratch); err != nil {
			return err
		}
		if it.scratch.Len() == 0 {
			it.done = true
			return nil
		}
		for _, row := range it.scratch.Rows {
			keep, err := it.pred(row, it.params)
			if err != nil {
				return err
			}
			if keep {
				dst.Append(row)
			}
		}
	}
	return nil
}

func (it *filterIter) Close() error {
	putBatch(it.scratch)
	it.scratch = nil
	return it.in.Close()
}

// projectIter computes output expressions over each input batch. Output
// cardinality equals input cardinality, so one input batch fills one
// output batch.
type projectIter struct {
	in      BatchIterator
	exprs   []expr.Compiled
	params  []types.Value
	scratch *Batch
}

func compileProject(p *lplan.Project) (*op, error) {
	in, err := compileOp(p.In)
	if err != nil {
		return nil, err
	}
	exprs := make([]expr.Compiled, len(p.Items))
	for i, ne := range p.Items {
		if exprs[i], err = expr.Compile(ne.E, p.In.Schema()); err != nil {
			return nil, err
		}
	}
	return &op{newIter: func(e *Executor) BatchIterator {
		return &projectIter{in: e.build(in), exprs: exprs, params: e.params}
	}}, nil
}

func (it *projectIter) Open() error {
	it.scratch = getBatch()
	return it.in.Open()
}

func (it *projectIter) NextBatch(dst *Batch) error {
	dst.Reset()
	if err := it.in.NextBatch(it.scratch); err != nil {
		return err
	}
	for _, row := range it.scratch.Rows {
		out := make(types.Row, len(it.exprs))
		for i, c := range it.exprs {
			v, err := c(row, it.params)
			if err != nil {
				return err
			}
			out[i] = v
		}
		dst.Append(out)
	}
	return nil
}

func (it *projectIter) Close() error {
	putBatch(it.scratch)
	it.scratch = nil
	return it.in.Close()
}

// spill is a temporary file owned by an operator. It registers with the
// store's temp-file census, so a leaked spill shows up in LiveTempFiles.
// All spill IO flows through the owning executor's Pager, so a governed
// query's spills count against its own budget and attribution.
type spill struct {
	store storage.Pager
	file  *storage.File
	bytes int
}

func newSpill(store storage.Pager, name string) *spill {
	return &spill{store: store, file: store.CreateTemp(name)}
}

func (s *spill) add(row types.Row) error {
	s.bytes += row.DiskWidth()
	return s.store.Append(s.file, row)
}

func (s *spill) finish() error { return s.store.Flush(s.file) }

func (s *spill) scan() *storage.Scanner { return s.store.NewScanner(s.file) }

// drop releases the file. It is idempotent and nil-safe so operator Close
// methods can run unconditionally at any point of the iterator lifecycle.
func (s *spill) drop() {
	if s == nil || s.file == nil {
		return
	}
	s.store.DropFile(s.file)
	s.file = nil
}

// meteredIter wraps one operator with runtime accounting. It pushes the
// operator's attribution frame around every lifecycle call, so page IO
// charged by the storage hook lands on the innermost active operator:
// children are wrapped too, making the page counters exclusive (self-only)
// while the wall times stay inclusive of children. Metering is the textbook
// beneficiary of batching — one Enter/Leave frame and one clock pair per
// batch instead of per row — while RowsOut stays exact (the sum of batch
// lengths).
type meteredIter struct {
	in  BatchIterator
	st  *obs.OpStats
	col *obs.Collector
}

func (m *meteredIter) Open() error {
	m.col.Enter(m.st)
	start := time.Now()
	err := m.in.Open()
	m.st.OpenNS += time.Since(start).Nanoseconds()
	m.col.Leave()
	return err
}

func (m *meteredIter) NextBatch(dst *Batch) error {
	m.col.Enter(m.st)
	start := time.Now()
	err := m.in.NextBatch(dst)
	m.st.NextNS += time.Since(start).Nanoseconds()
	m.col.Leave()
	m.st.NextCalls++
	if err == nil {
		m.st.RowsOut += int64(dst.Len())
	}
	return err
}

func (m *meteredIter) Close() error {
	m.col.Enter(m.st)
	start := time.Now()
	err := m.in.Close()
	m.st.CloseNS += time.Since(start).Nanoseconds()
	m.col.Leave()
	return err
}
