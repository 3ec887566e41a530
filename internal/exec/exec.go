package exec

import (
	"fmt"
	"math"
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
	// input holds the rows an Input leaf reads in this run (WithInput).
	input []types.Row
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

// NewInMemory creates an executor without a store, for plans whose leaves
// are Inputs. Their rows are already in memory, so its operators hold their
// state there too: nothing spills, and a hash aggregation emits its groups
// in the order their first rows arrived. A plan that reads or writes pages
// whatever its budget (a scan, a block nested-loops join) cannot run on it.
func NewInMemory() *Executor {
	return &Executor{budgetBytes: math.MaxInt, batchSize: DefaultBatchSize}
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

// WithInput supplies the rows the plan's Input leaf reads and returns the
// executor. The rows, all of one arity, are read, never modified.
func (e *Executor) WithInput(rows []types.Row) *Executor {
	e.input = rows
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

// Run compiles the plan, executes it and materializes its output.
func (e *Executor) Run(n lplan.Node) (*Result, error) {
	p, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return e.RunProgram(p)
}

// RunProgram executes a compiled plan and materializes its output. Rows are
// cloned out of the cursor, which gathers every row into one scratch row.
func (e *Executor) RunProgram(p *Program) (*Result, error) {
	cur, err := e.Open(p)
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
	pos     int // the batch's next row
	n       int // the batch's rows Next hands out
	eos     bool
	pending error // governance error to surface after the allowed prefix
	closed  bool
	row     types.Row // the row Next gathers
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
// operator's iterator for one run, and order, the order its output is in
// by lplan.Order, the rule the cost model charges by (empty = none).
type op struct {
	node    lplan.Node
	label   string
	newIter func(e *Executor) BatchIterator
	order   []schema.ColID
}

// Compile validates the plan and compiles every operator. It is the one
// place the executor resolves columns and compiles expressions, for frozen
// and unfrozen trees alike: the engine compiles a plan once, before it
// publishes it; Run compiles the tree it is handed.
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
	case *lplan.Input:
		o = &op{newIter: func(e *Executor) BatchIterator {
			return &inputIter{blockIter: blockIter{target: e.batchSize}, rows: e.input}
		}}
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
	return labelled(o, n), nil
}

// labelled sets what a compiled operator takes from its plan node: the
// node itself, its label and its order.
func labelled(o *op, n lplan.Node) *op {
	o.node, o.label, o.order = n, n.Describe(), lplan.Order(n)
	return o
}

// input is a compiled operator as its parent reads it: the operator and
// the schema of the rows it emits.
type input struct {
	op  *op
	sch schema.Schema
}

// compileInput compiles n as an input that emits rows of n's own schema.
func compileInput(n lplan.Node) (input, error) {
	o, err := compileOp(n)
	return input{op: o, sch: n.Schema()}, err
}

// Open builds the program's iterator tree for this run, opens it, and
// returns a streaming cursor. On Open failure the partially opened tree is
// closed before returning, so spill files never leak.
func (e *Executor) Open(p *Program) (*Cursor, error) {
	it := e.build(p.root)
	if err := it.Open(); err != nil {
		// A partially opened operator tree (e.g. a grace join that spilled
		// its build side before its probe failed) must still drop its spills.
		it.Close()
		return nil, err
	}
	return &Cursor{it: it, ex: e, sch: p.sch, b: getBatch()}, nil
}

// Schema returns the output schema of the plan.
func (c *Cursor) Schema() schema.Schema { return c.sch }

// Next returns the next row, gathered from the batch's vectors into a row
// that stays valid until the next call: a caller that keeps it clones it.
// ok is false at end of stream.
func (c *Cursor) Next() (types.Row, bool, error) {
	for {
		if c.pos < c.n {
			c.row = c.b.gather(c.pos, c.row)
			c.pos++
			return c.row, true, nil
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
		c.pos, c.n = 0, c.b.Len()
		if c.n == 0 {
			c.eos = true
			continue
		}
		allowed, err := c.ex.gov.TickRows(int64(c.n))
		if err != nil {
			// Deliver the in-budget prefix, then surface the error.
			c.n = int(allowed)
			c.pending = err
		}
	}
}

// Buffered returns how many rows Next returns before it pulls another
// batch.
func (c *Cursor) Buffered() int { return c.n - c.pos }

// Close releases the operator tree's resources. Safe to call repeatedly.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	putBatch(c.b)
	c.b = nil
	return c.it.Close()
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

// scanIter reads a file a page at a time and hands each page's own
// vectors out: it filters the page through a selection vector, then emits
// the rows that passed as the projected columns' vectors with a selection
// of them. A $tid is a vector the scan generates per page, the rowids of
// the page's rows. Pages are read as a scan of batches of the executor's
// batch size would read them: when a batch's worth of rows is due, the
// scan reads pages until it holds that many rows that passed, and hands
// them out a page at a time before it reads again. So the batch size, and
// the pages being handed out one by one, never move a page access.
type scanIter struct {
	pg     storage.Pager
	file   *storage.File
	target int
	params []types.Value
	filter *expr.Filter // nil: none
	// proj holds the output columns' positions among the page's columns,
	// the generated $tid last; nil = all.
	proj []int
	tid  bool // generate the $tid vector

	sc       *storage.Scanner
	eof      bool
	q        *pageQueue // pooled
	buffered int        // the rows the queue holds
	left     int        // the rows due before the scan reads again
}

// pageQueue holds the pages a scan has read and not yet handed out,
// pages[head:], in order. Their selections and $tid values, and the vector
// headers of a projection or a $tid, sit in three arenas. A batch's worth is read only once the
// queue holds at most what is left of one page, which moves to the
// arenas' front, so the arenas stay a batch's worth of pages long.
type pageQueue struct {
	pages []readPage
	head  int
	vecs  []types.Vector
	sels  []int32
	tids  []int64
	// hwm is the most vector headers and pages the arenas have held since
	// the queue was taken from the pool: what release clears.
	hwmVecs, hwmPages int
}

// readPage is a page a scan has read: its vectors, the output's, and the
// positions of the rows not yet handed out.
type readPage struct {
	cols []types.Vector // the page's vectors, then the $tid vector
	out  []types.Vector // the output's vectors
	n    int
	sel  []int32
}

// pageQueues recycles the scans' queues, their arenas grown.
var pageQueues recycler[pageQueue]

func compileScan(s *lplan.Scan) (*op, error) {
	base := s.Table.Schema.Rename(s.Alias)
	if s.WithTID {
		base = append(base, schema.Column{
			ID: schema.ColID{Rel: s.Alias, Name: lplan.TIDColumn}, Type: types.KindInt})
	}
	filter, err := expr.CompileFilter(s.Filter, base)
	if err != nil {
		return nil, err
	}
	var proj []int
	if s.Proj != nil {
		if proj, err = colIndexes(base, s.Proj); err != nil {
			return nil, err
		}
	}
	return &op{newIter: func(e *Executor) BatchIterator {
		return &scanIter{pg: e.pg, file: s.Table.File,
			target: e.batchSize, params: e.params, filter: filter, proj: proj, tid: s.WithTID}
	}}, nil
}

func (it *scanIter) Open() error {
	it.release()
	it.sc, it.eof = it.pg.NewScanner(it.file), false
	it.q, it.buffered, it.left = pageQueues.get(), 0, 0
	return nil
}

func (it *scanIter) NextBatch(dst *Batch) error {
	dst.Reset()
	q := it.q
	if it.left == 0 {
		it.left = it.target
		it.compact()
		for it.buffered < it.left && !it.eof {
			if err := it.read(); err != nil {
				return err
			}
		}
	}
	if q.head == len(q.pages) {
		return nil
	}
	p := &q.pages[q.head]
	n := min(len(p.sel), it.left)
	dst.Block, dst.Sel = types.Block{N: p.n, Cols: p.out}, p.sel[:n]
	p.sel = p.sel[n:]
	it.buffered, it.left = it.buffered-n, it.left-n
	if len(p.sel) == 0 {
		q.head++
	}
	return nil
}

// compact empties the queue's arenas but for the page still being handed
// out, whose vector headers, selection and $tid values move to their
// front (each copy is a memmove, so overlap is safe). A page's own vectors
// stay where they are.
func (it *scanIter) compact() {
	q := it.q
	if q.head == 0 {
		return // every page queued is live, and already in front
	}
	live := q.pages[q.head:]
	q.pages, q.head = append(q.pages[:0], live...), 0
	q.vecs, q.sels, q.tids = q.vecs[:0], q.sels[:0], q.tids[:0]
	for i := range q.pages {
		p := &q.pages[i]
		cols := p.cols // the page's own, unless a $tid is generated
		if it.tid {
			q.vecs = append(q.vecs, p.cols...)
			cols = q.vecs[len(q.vecs)-len(p.cols):]
			tid := &cols[len(cols)-1]
			q.tids = append(q.tids, tid.Ints...)
			tid.Ints = q.tids[len(q.tids)-len(tid.Ints):]
		}
		out := cols
		if it.proj != nil {
			for _, j := range it.proj {
				q.vecs = append(q.vecs, cols[j])
			}
			out = q.vecs[len(q.vecs)-len(it.proj):]
		}
		q.sels = append(q.sels, p.sel...)
		p.cols, p.out, p.sel = cols, out, q.sels[len(q.sels)-len(p.sel):]
	}
}

// read reads the next page into the queue, or sets eof.
func (it *scanIter) read() error {
	page, rid, ok, err := it.sc.NextPage()
	if err != nil || !ok {
		it.eof = true
		return err
	}
	q := it.q
	nv, cols := len(q.vecs), page.Cols // a page's vectors never change
	if it.tid {
		q.vecs = append(q.vecs, page.Cols...)
		nt := len(q.tids)
		for k := range page.N {
			q.tids = append(q.tids, rid+int64(k))
		}
		q.vecs = append(q.vecs, types.Vector{K: types.KindInt, N: page.N, Ints: q.tids[nt:len(q.tids):len(q.tids)]})
		cols = q.vecs[nv:len(q.vecs):len(q.vecs)]
	}
	ns := len(q.sels)
	for k := range page.N {
		q.sels = append(q.sels, int32(k))
	}
	sel := q.sels[ns:len(q.sels):len(q.sels)]
	if it.filter != nil {
		if sel, err = it.filter.Select(cols, sel, it.params); err != nil {
			return err
		}
	}
	if len(sel) == 0 {
		q.vecs, q.sels = q.vecs[:nv], q.sels[:ns]
		return nil
	}
	out := cols
	if it.proj != nil {
		no := len(q.vecs)
		for _, j := range it.proj {
			q.vecs = append(q.vecs, cols[j])
		}
		out = q.vecs[no:len(q.vecs):len(q.vecs)]
	}
	q.pages = append(q.pages, readPage{cols: cols, out: out, n: page.N, sel: sel})
	q.hwmVecs, q.hwmPages = max(q.hwmVecs, len(q.vecs)), max(q.hwmPages, len(q.pages))
	it.buffered += len(sel)
	return nil
}

func (it *scanIter) Close() error {
	it.release()
	return nil
}

// release returns the scan's queue to its pool, holding no page's
// vectors.
func (it *scanIter) release() {
	if q := it.q; q != nil {
		clear(q.vecs[:q.hwmVecs])
		clear(q.pages[:q.hwmPages])
		q.pages, q.head, q.vecs, q.sels, q.tids = q.pages[:0], 0, q.vecs[:0], q.sels[:0], q.tids[:0]
		q.hwmVecs, q.hwmPages = 0, 0
		pageQueues.put(q)
	}
	it.q = nil
}

// spillScan returns a scan of the spill file's rows.
func spillScan(sp *spill, target int) *scanIter {
	return &scanIter{pg: sp.store, file: sp.file, target: target}
}

// inputIter reads an Input leaf's rows (WithInput): Open copies them,
// their VARCHARs by reference, into one block of a pooled store, which
// blockIter hands out; the store is recycled at Close, so a run over a
// few rows, as view maintenance makes per commit, allocates no block.
type inputIter struct {
	blockIter
	rows  []types.Row
	store *Batch
}

func (it *inputIter) Open() error {
	it.store = getStore()
	if len(it.rows) > 0 {
		it.store.startOwn(len(it.rows[0]))
	}
	for _, r := range it.rows {
		for j := range it.store.Cols {
			it.store.Cols[j].AppendRef(r[j])
		}
	}
	it.store.N = len(it.rows)
	it.blk = it.store.Block
	return it.blockIter.Open()
}

func (it *inputIter) Close() error {
	putStore(it.store)
	it.store = nil
	return nil
}

// filterIter applies residual predicates batch-at-a-time: it keeps pulling
// input batches until the output batch is full or the input is exhausted,
// so a selective filter still hands full batches downstream. It narrows a
// copy of each input batch's selection and copies the rows that passed
// into the output's own vectors, keeping its input's order.
type filterIter struct {
	in      BatchIterator
	filter  *expr.Filter
	params  []types.Value
	target  int
	scratch *Batch
	sel     []int32
	done    bool
}

func compileFilter(f *lplan.Filter) (*op, error) {
	in, err := compileOp(f.In)
	if err != nil {
		return nil, err
	}
	filter, err := expr.CompileFilter(f.Preds, f.In.Schema())
	if err != nil {
		return nil, err
	}
	return &op{newIter: func(e *Executor) BatchIterator {
		return &filterIter{in: e.build(in), filter: filter, params: e.params, target: e.batchSize}
	}}, nil
}

func (it *filterIter) Open() error {
	it.scratch = getBatch()
	it.done = false
	return it.in.Open()
}

func (it *filterIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for started := false; !it.done && dst.N < it.target; {
		b := it.scratch
		if err := it.in.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			it.done = true
			return nil
		}
		sel, err := it.filter.Select(b.Cols, append(it.sel[:0], b.selection()...), it.params)
		it.sel = sel
		if err != nil {
			return err
		}
		if !started {
			dst.startOwn(len(b.Cols))
			started = true
		}
		dst.appendSel(&b.Block, sel)
	}
	return nil
}

func (it *filterIter) Close() error {
	putBatch(it.scratch)
	it.scratch = nil
	return it.in.Close()
}

// projectIter computes output expressions over each input batch. When
// every output is a bare column it hands the input's vectors on,
// rearranged; otherwise it fills vectors of its own, a bare column's by a
// typed copy and a computed one's from its evaluator over the gathered
// row. Output cardinality equals input cardinality, so one input batch
// fills one output batch.
type projectIter struct {
	in      BatchIterator
	cols    []int           // per output: the input column it copies, or -1
	exprs   []expr.Compiled // per output with cols -1: its evaluator
	params  []types.Value
	scratch *Batch
	out     []types.Vector // the rearranged vectors when every output is bare
	row     types.Row      // the gathered input row
}

func compileProject(p *lplan.Project) (*op, error) {
	in, err := compileOp(p.In)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(p.Items))
	exprs := make([]expr.Compiled, len(p.Items))
	computed := false
	for i, ne := range p.Items {
		if exprs[i], err = expr.Compile(ne.E, p.In.Schema()); err != nil {
			return nil, err
		}
		cols[i] = -1
		if c, ok := ne.E.(*expr.ColRef); ok {
			cols[i], _ = p.In.Schema().IndexOf(c.ID) // resolved: it compiled
			exprs[i] = nil
		} else {
			computed = true
		}
	}
	if !computed {
		exprs = nil
	}
	return &op{newIter: func(e *Executor) BatchIterator {
		return &projectIter{in: e.build(in), cols: cols, exprs: exprs, params: e.params}
	}}, nil
}

func (it *projectIter) Open() error {
	it.scratch = getBatch()
	return it.in.Open()
}

func (it *projectIter) NextBatch(dst *Batch) error {
	dst.Reset()
	b := it.scratch
	if err := it.in.NextBatch(b); err != nil || b.Len() == 0 {
		return err
	}
	if it.exprs == nil {
		it.out = it.out[:0]
		for _, j := range it.cols {
			it.out = append(it.out, b.Cols[j])
		}
		dst.Block, dst.Sel = types.Block{N: b.N, Cols: it.out}, b.Sel
		return nil
	}
	dst.startOwn(len(it.cols))
	sel := b.selection()
	for i, j := range it.cols {
		if j >= 0 {
			dst.Cols[i].AppendSel(&b.Cols[j], sel)
		}
	}
	for k := range sel {
		it.row = b.gather(k, it.row)
		for i, fn := range it.exprs {
			if fn == nil {
				continue
			}
			v, err := fn(it.row, it.params)
			if err != nil {
				return err
			}
			dst.Cols[i].Append(v)
		}
	}
	dst.N = len(sel)
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
	row   types.Row // the row addRows gathers
}

func newSpill(store storage.Pager, name string) *spill {
	return &spill{store: store, file: store.CreateTemp(name)}
}

// addRows appends the rows of blk at sel, in order, each gathered into
// the spill's scratch row, whose values the store copies.
func (s *spill) addRows(blk *types.Block, sel []int32) error {
	for _, k := range sel {
		s.row = blk.Row(int(k), s.row)
		if err := s.store.Append(s.file, s.row); err != nil {
			return err
		}
	}
	return nil
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

// spillPartitions is the fan-out of a Grace join and of an overflowing hash
// aggregation.
const spillPartitions = 16

// partitioner writes rows to spill partitions by key: a row goes to the
// partition of its key's types.AppendKey bytes (partitionOf).
type partitioner struct {
	key  []byte
	sels [spillPartitions][]int32
}

// add appends the rows of blk at sel, keyed by the columns at cols, to
// parts: each partition's in the order sel holds them.
func (p *partitioner) add(parts []*spill, blk *types.Block, cols []int, sel []int32) error {
	for q := range p.sels {
		p.sels[q] = p.sels[q][:0]
	}
	for _, k := range sel {
		p.key = p.key[:0]
		for _, c := range cols {
			p.key = types.AppendKey(p.key, blk.Cols[c].Value(int(k)))
		}
		q := partitionOf(p.key)
		p.sels[q] = append(p.sels[q], k)
	}
	for q, s := range p.sels {
		if err := parts[q].addRows(blk, s); err != nil {
			return err
		}
	}
	return nil
}

// partitionOf assigns a key, by its byte encoding, to a spill partition:
// its fnv-32a hash modulo the fan-out. The key table's own hash is seeded
// per process; this one is fixed, so which rows share a spill file — and
// with it every spill page count — is the same in every run.
func partitionOf(key []byte) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % spillPartitions)
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

// epoch is the instant the metering clock counts from: time.Since of it
// reads the monotonic clock alone, where time.Now also reads the wall
// clock.
var epoch = time.Now()

func (m *meteredIter) Open() error {
	m.col.Enter(m.st)
	start := time.Since(epoch)
	err := m.in.Open()
	m.st.OpenNS += int64(time.Since(epoch) - start)
	m.col.Leave()
	return err
}

func (m *meteredIter) NextBatch(dst *Batch) error {
	m.col.Enter(m.st)
	start := time.Since(epoch)
	err := m.in.NextBatch(dst)
	m.st.NextNS += int64(time.Since(epoch) - start)
	m.col.Leave()
	m.st.NextCalls++
	if err == nil {
		m.st.RowsOut += int64(dst.Len())
	}
	return err
}

func (m *meteredIter) Close() error {
	m.col.Enter(m.st)
	start := time.Since(epoch)
	err := m.in.Close()
	m.st.CloseNS += int64(time.Since(epoch) - start)
	m.col.Leave()
	return err
}
