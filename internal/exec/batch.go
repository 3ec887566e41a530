package exec

import (
	"sync"

	"aggview/internal/storage"
	"aggview/internal/types"
)

// DefaultBatchSize is the target number of rows operators move per
// NextBatch call. It is large enough to amortize per-call overhead
// (virtual dispatch, metering, governance) down to noise, and small enough
// that a batch of typical rows stays well inside cache-friendly territory.
const DefaultBatchSize = 1024

// Batch is a reusable vector of rows — the unit of data flow between
// operators. See doc.go for the ownership and reuse contract: the Rows
// slice is overwritten by the next NextBatch call on the producing
// operator, but the types.Row values it held remain valid indefinitely.
type Batch struct {
	Rows []types.Row
	// hashes is scratch for the key hashes of Rows (hashKeys), pooled with
	// the batch so that hashing operators allocate none per run.
	hashes []uint64
	// sel is scratch for a selection vector, positions in Rows (or in a
	// page the batch's user is filtering), and gids for the group ids of
	// Rows (hash aggregation), pooled alike. Like hashes, they are valid
	// only while their user holds the batch.
	sel, gids []int32
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Append adds a row to the batch.
func (b *Batch) Append(r types.Row) { b.Rows = append(b.Rows, r) }

// selectAll returns the batch's selection vector holding 0, 1, ..., n-1.
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
	if cap(b.gids) < len(b.Rows) {
		b.gids = make([]int32, len(b.Rows), max(len(b.Rows), DefaultBatchSize))
	}
	return b.gids[:len(b.Rows)]
}

// batchPool recycles Batch vectors across operators and queries, so steady
// query traffic allocates no per-batch memory.
var batchPool = sync.Pool{
	New: func() any { return &Batch{Rows: make([]types.Row, 0, DefaultBatchSize)} },
}

// getBatch takes an empty batch from the pool.
func getBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

// putBatch returns a batch to the pool, dropping its row references so the
// pool does not pin freed query memory.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	for i := range b.Rows {
		b.Rows[i] = nil
	}
	b.Reset()
	batchPool.Put(b)
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
// thousand emitted values.
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
		size := arenaSlabValues
		if n > size {
			size = n
		}
		return make([]types.Value, size)
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

// rowArena carves output rows from slab allocations, turning one heap
// allocation per emitted row into one slab fetch per few thousand values.
// Carved rows are sliced at full capacity so an append can never bleed
// into a neighbor, and the arena only ever advances through a slab — it
// never reuses carved space — so within a query the executor's
// row-immutability contract holds.
//
// Recycled slabs are NOT zeroed: a carved row holds stale values until
// written, so every carve site must assign all n slots before the row is
// emitted.
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

// project carves the row holding row's values at positions proj.
func (a *rowArena) project(row types.Row, proj []int) types.Row {
	out := a.carve(len(proj))
	for i, j := range proj {
		out[i] = row[j]
	}
	return out
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

// drainBatches reads an operator to completion, invoking fn per row. Close
// runs even when Open fails, so a partially opened subtree releases its
// spills. Pipeline breakers (sorts, hash builds, aggregations) use it to
// consume their inputs batch-at-a-time.
func drainBatches(it BatchIterator, fn func(types.Row) error) error {
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
		for _, row := range b.Rows {
			if err := fn(row); err != nil {
				return err
			}
		}
	}
}

// rowStore materializes rows for a pipeline breaker that must hold its
// whole input and address it by position (a hash join's build side). The
// rows sit in pooled batches of DefaultBatchSize, so the vector grows
// without copying and, query after query, without allocating.
type rowStore struct {
	chunks []*Batch // every chunk before the last in use is full
	n      int
}

func (s *rowStore) add(r types.Row) {
	if s.n/DefaultBatchSize == len(s.chunks) {
		s.chunks = append(s.chunks, getBatch())
	}
	s.chunks[s.n/DefaultBatchSize].Append(r)
	s.n++
}

func (s *rowStore) at(i int) types.Row {
	return s.chunks[i/DefaultBatchSize].Rows[i%DefaultBatchSize]
}

// release empties the store, returning the chunks to the pool.
func (s *rowStore) release() {
	for _, c := range s.chunks {
		putBatch(c)
	}
	s.chunks, s.n = nil, 0
}

// sliceIter yields an in-memory row slice in batches.
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
	n := len(it.rows) - it.pos
	if n > it.target {
		n = it.target
	}
	dst.Rows = append(dst.Rows, it.rows[it.pos:it.pos+n]...)
	it.pos += n
	return nil
}

func (it *sliceIter) Close() error { return nil }

// spillIter scans a spill file in batches, widening each row by shape
// into arena (rowShape.widen).
type spillIter struct {
	sp     *spill
	target int
	shape  rowShape
	arena  *rowArena
	sc     *storage.Scanner
}

func (it *spillIter) Open() error { it.sc = it.sp.scan(); return nil }

func (it *spillIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for dst.Len() < it.target {
		r, _, ok, err := it.sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		dst.Append(it.shape.widen(r, it.arena))
	}
	return nil
}

func (it *spillIter) Close() error { return nil }
