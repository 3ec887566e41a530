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
// builds its output fills vectors of the batch's own (startOwn). See
// doc.go for the ownership contract: the vectors and Sel are the
// producer's, read-only to the consumer, and valid only until the
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

// startOwn empties the batch into width vectors of its own, for a
// columnar gather (appendSel) to fill.
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

// appendSel appends the rows of src at sel, positions in its vectors, to
// the batch's own vectors (startOwn).
func (b *Batch) appendSel(src *types.Block, sel []int32) {
	for j := range b.Cols {
		b.Cols[j].AppendSel(&src.Cols[j], sel)
	}
	b.N += len(sel)
}

// gather returns the i-th row of the batch, its values copied into dst
// (resized as needed). It and types.Block.Row, which it wraps, are the one
// adapter from vectors to rows, for the readers whose interface is a row:
// the spill writers (a store append takes a row), computed expressions and
// the cursor.
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

// blockIter hands out an in-memory block's rows as batches of its
// vectors, up to target rows selected at a time: the rows at sel, in
// order, or every row when sel is nil.
type blockIter struct {
	blk    types.Block
	sel    []int32 // nil: every row; a block that takes two batches gets 0, 1, ..., blk.N-1
	target int
	pos    int
}

func (it *blockIter) Open() error { it.pos = 0; return nil }

func (it *blockIter) NextBatch(dst *Batch) error {
	dst.Reset()
	n := it.blk.N
	if it.sel != nil {
		n = len(it.sel)
	}
	k := min(n-it.pos, it.target)
	switch {
	case k == 0:
		return nil
	case it.sel == nil && k == n:
		dst.Block = it.blk
	default:
		if it.sel == nil {
			it.sel = make([]int32, n)
			for i := range it.sel {
				it.sel[i] = int32(i)
			}
		}
		dst.Block, dst.Sel = it.blk, it.sel[it.pos:it.pos+k]
	}
	it.pos += k
	return nil
}

func (it *blockIter) Close() error { return nil }
