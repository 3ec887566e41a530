package exec

import (
	"sync"

	"aggview/internal/types"
)

// DefaultBatchSize is the target number of rows operators move per
// NextBatch call. It is large enough to amortize per-call overhead
// (virtual dispatch, metering, governance) down to noise, and small enough
// that a batch of typical rows stays well inside cache-friendly territory.
const DefaultBatchSize = 1024

// Batch is the unit of data flow between operators: column vectors and a
// selection vector over them. A scan hands out a page's own vectors with
// the positions of the rows that passed its filter; an operator that
// builds its output fills vectors of the batch's own (startOwn,
// appendRow). See doc.go for the ownership contract: the vectors and Sel
// are the producer's, read-only to the consumer, and valid only until the
// consumer's next NextBatch call on the producer. A row outlives its
// batch only as a copy: gathered (gather), or appended to vectors the
// consumer owns.
type Batch struct {
	types.Block
	// Sel holds the batch's rows, positions in the vectors, in order; nil
	// means all N of them.
	Sel []int32
	// own holds the vectors startOwn fills, pooled with the batch.
	own []types.Vector
	// sel is scratch for a selection vector (selectAll), and gids for a
	// number per row of the batch — a hash aggregation's group ids, a hash
	// join's chains — indexed by row, the i-th of the selection; pooled
	// with the batch, and valid only while their user holds it.
	sel, gids []int32
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if b.Sel == nil {
		return b.N
	}
	return len(b.Sel)
}

// Reset empties the batch, keeping its own vectors' storage.
func (b *Batch) Reset() { b.Block, b.Sel = types.Block{}, nil }

// selection returns the batch's rows as positions in its vectors.
func (b *Batch) selection() []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return b.selectAll(b.N)
}

// selectAll returns the batch's selection scratch holding 0, 1, ..., n-1.
func (b *Batch) selectAll(n int) []int32 {
	if cap(b.sel) < n {
		b.sel = make([]int32, n, max(n, DefaultBatchSize))
	}
	b.sel = b.sel[:n]
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
	return b.sel
}

// groupIDs returns the batch's group-id vector, one slot per row.
func (b *Batch) groupIDs() []int32 {
	if n := b.Len(); cap(b.gids) < n {
		b.gids = make([]int32, n, max(n, DefaultBatchSize))
	}
	return b.gids[:b.Len()]
}

// startOwn empties the batch into width vectors of its own, for
// appendRow or a columnar gather to fill.
func (b *Batch) startOwn(width int) {
	if cap(b.own) < width {
		b.own = make([]types.Vector, width)
	}
	b.own = b.own[:width]
	for j := range b.own {
		b.own[j].Reset()
	}
	b.Block, b.Sel = types.Block{Cols: b.own}, nil
}

// appendRow appends r's values to the batch's own vectors (startOwn),
// its VARCHARs by reference (Vector.AppendRef).
func (b *Batch) appendRow(r types.Row) {
	for j := range r {
		b.Cols[j].AppendRef(r[j])
	}
	b.N++
}

// gather returns the i-th row of the batch, its values copied into dst
// (resized as needed). It and types.Block.Row, which it wraps, are the one
// adapter from vectors to rows: every operator or expression that reads
// rows — sort, merge join, block nested loops, spill writers, computed
// expressions, the cursor — reads them through it.
func (b *Batch) gather(i int, dst types.Row) types.Row {
	return b.Row(b.at(i), dst)
}

// at returns the position in the vectors of the batch's i-th row.
func (b *Batch) at(i int) int {
	if b.Sel == nil {
		return i
	}
	return int(b.Sel[i])
}

// recycler keeps objects of one kind for reuse across operators and
// queries, so that steady query traffic allocates no per-run scratch.
type recycler[T any] struct{ pool sync.Pool }

// get returns a recycled object, or a new zero one.
func (r *recycler[T]) get() *T {
	if x, ok := r.pool.Get().(*T); ok {
		return x
	}
	return new(T)
}

// put recycles x, which its user must no longer touch.
func (r *recycler[T]) put(x *T) { r.pool.Put(x) }

// batches recycles the batches operators pass and fill, stores those that
// hold a whole input (a hash join's build rows, an aggregation's groups):
// kept apart, a batch grown to one use is handed to the next of its kind.
var batches, stores recycler[Batch]

// getBatch takes an empty batch from the recycler.
func getBatch() *Batch { return batches.get() }

// getStore takes an empty batch for a whole input from the recycler.
func getStore() *Batch { return stores.get() }

// putBatch recycles a batch taken with getBatch, dropping its references
// so that it does not pin freed query memory.
func putBatch(b *Batch) { recycle(&batches, b) }

// putStore recycles a batch taken with getStore.
func putStore(b *Batch) { recycle(&stores, b) }

func recycle(r *recycler[Batch], b *Batch) {
	if b == nil {
		return
	}
	for j := range b.own {
		b.own[j].Reset()
	}
	b.Reset()
	r.put(b)
}

// arenaSlabValues is the number of types.Value slots a rowArena allocates
// per slab — large enough that per-row carving amortizes to noise, small
// enough that an operator that emits a handful of rows doesn't pin much
// memory (TestArenaSlabBytes states the size in bytes).
const arenaSlabValues = 8192

// slabPool recycles row-arena slabs across queries. A slab sits in the
// pool between a cursor's Close and the next query's first carve, so
// steady query traffic reuses a small working set of slabs instead of
// churning the garbage collector with one short-lived slab per few
// thousand gathered values.
var slabPool = sync.Pool{
	New: func() any { s := make([]types.Value, arenaSlabValues); return &s },
}

// arenaRecycler tracks every pooled slab the arenas of one executor carve
// from, so the cursor can return them all when it closes. Recycling is
// safe because no executor row outlives its cursor: the public API copies
// rows into native Go values before the cursor closes, spills and group
// tables die with the operator tree, and tables only ever store rows built
// from literals.
type arenaRecycler struct {
	slabs []*[]types.Value
}

// newSlab returns a slab of at least n values. Pooled slabs are recorded
// for release; oversize requests (wider than a slab) fall back to a plain
// allocation that is never pooled. A nil recycler always allocates fresh
// slabs — the arena then degrades to allocate-and-forget, which keeps
// directly constructed operators (tests) correct without wiring.
func (ar *arenaRecycler) newSlab(n int) []types.Value {
	if ar == nil || n > arenaSlabValues {
		return make([]types.Value, max(n, arenaSlabValues))
	}
	p := slabPool.Get().(*[]types.Value)
	ar.slabs = append(ar.slabs, p)
	return *p
}

// release returns every tracked slab to the pool. The caller must
// guarantee that no row carved from them is still reachable.
func (ar *arenaRecycler) release() {
	for _, p := range ar.slabs {
		slabPool.Put(p)
	}
	ar.slabs = nil
}

// rowArena carves rows from slab allocations, turning one heap allocation
// per gathered or finished row into one slab fetch per few thousand
// values. Carved rows are sliced at full capacity so an append can never
// bleed into a neighbor, and the arena only ever advances through a slab
// — it never reuses carved space — so a carved row stays as written until
// the cursor closes.
//
// Recycled slabs are NOT zeroed: a carved row holds stale values until
// written, so every carve site must assign all n slots.
//
// Arenas are per-operator and therefore single-goroutine, like the
// operators that own them.
type rowArena struct {
	rec *arenaRecycler
	buf []types.Value
}

// carve returns a row of n values backed by the current slab. The caller
// must overwrite every slot.
func (a *rowArena) carve(n int) types.Row {
	if n == 0 {
		return types.Row{}
	}
	if len(a.buf) < n {
		a.buf = a.rec.newSlab(n)
	}
	r := types.Row(a.buf[:n:n])
	a.buf = a.buf[n:]
	return r
}

// BatchIterator is the executor's operator interface: a Volcano lifecycle
// with a vectorized data path. NextBatch resets dst and fills it with up to
// the executor's batch-size rows; an empty dst after a nil-error return
// signals end of stream (repeat calls keep returning an empty batch). See
// doc.go for the full contract.
type BatchIterator interface {
	Open() error
	NextBatch(dst *Batch) error
	Close() error
}

// drainBatches reads an operator to completion, invoking fn per batch.
// Close runs even when Open fails, so a partially opened subtree releases
// its spills. Pipeline breakers (sorts, hash builds, aggregations) use it
// to consume their inputs.
func drainBatches(it BatchIterator, fn func(*Batch) error) error {
	defer it.Close()
	if err := it.Open(); err != nil {
		return err
	}
	b := getBatch()
	defer putBatch(b)
	for {
		if err := it.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// drainRows reads an operator to completion, invoking fn per row, each
// gathered into a row carved from a, so fn may keep it.
func drainRows(it BatchIterator, a *rowArena, fn func(types.Row) error) error {
	return drainBatches(it, func(b *Batch) error {
		for i := range b.Len() {
			if err := fn(b.gather(i, a.carve(len(b.Cols)))); err != nil {
				return err
			}
		}
		return nil
	})
}

// sliceIter yields an in-memory row slice in batches of vectors it
// fills.
type sliceIter struct {
	rows   []types.Row
	pos    int
	target int
}

func newSliceIter(rows []types.Row, target int) *sliceIter {
	if target <= 0 {
		target = DefaultBatchSize
	}
	return &sliceIter{rows: rows, target: target}
}

func (it *sliceIter) Open() error { it.pos = 0; return nil }

func (it *sliceIter) NextBatch(dst *Batch) error {
	dst.Reset()
	n := min(len(it.rows)-it.pos, it.target)
	if n == 0 {
		return nil
	}
	dst.startOwn(len(it.rows[it.pos]))
	for _, r := range it.rows[it.pos : it.pos+n] {
		dst.appendRow(r)
	}
	it.pos += n
	return nil
}

func (it *sliceIter) Close() error { return nil }
