package exec

import (
	"cmp"
	"container/heap"
	"slices"

	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// sortKeys are a sort's column positions, each ascending unless its desc
// entry is set (desc nil when lplan.Sort.Ascending).
type sortKeys struct {
	cols []int
	desc []bool
}

// compareAt orders row i of a against row j of b by the keys:
// types.CompareAt per key, negated for DESC. It is the one order the
// sort's paths use, in memory and over spilled runs alike.
func (k sortKeys) compareAt(a *types.Block, i int, b *types.Block, j int) int {
	for x, c := range k.cols {
		if d := types.CompareAt(&a.Cols[c], i, &b.Cols[c], j); d != 0 {
			if k.desc != nil && k.desc[x] {
				return -d
			}
			return d
		}
	}
	return 0
}

// sorted returns the positions of blk's rows in key order, equal keys in
// position order: an O(n log n) sort of ordinals whose key ties fall to
// the ordinal. ord is scratch space for them.
func (k sortKeys) sorted(blk *types.Block, ord *Batch) []int32 {
	sel := ord.selectAll(blk.N)
	slices.SortFunc(sel, func(a, b int32) int {
		if c := k.compareAt(blk, int(a), blk, int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return sel
}

// sortIter sorts its input stably by its keys. NULL orders before every
// non-NULL value (types.CompareAt), so an ascending key puts NULLs first
// and a DESC key last. The input is held in a store batch; within the
// memory budget its ordinals are sorted and the rows handed out in that
// order (blockIter). A larger input is cut, row-exact where its width
// passes the budget, into runs, each sorted and written to a spill file
// and then k-way merged; the merge compares the runs' page positions
// under the same order and breaks ties by run ordinal, so neither batch
// size nor spilling moves a NULL or a tie.
type sortIter struct {
	exec *Executor
	in   BatchIterator
	keys sortKeys

	rows *Batch // pooled: the input rows, or a run's, in vectors of its own
	out  BatchIterator
	blk  blockIter // out when nothing spilled
	runs []*spill
}

func (c *compiler) sort(s *lplan.Sort) (*op, error) {
	in, err := c.compile(s.In)
	if err != nil {
		return nil, err
	}
	cols, err := colIndexes(s.In.Schema(), s.By)
	if err != nil {
		return nil, err
	}
	keys := sortKeys{cols: cols}
	if !s.Ascending() {
		keys.desc = s.Desc
	}
	return &op{newIter: sortedInput(in, s.By, keys)}, nil
}

// sortedInput returns how a run opens the compiled input in sorted by keys,
// the positions of the columns want: as it is when every key is ascending
// and its order covers want (lplan.Covers: an exact prefix, in key order),
// which is the order a stable sort would leave, and through a sortIter
// otherwise.
func sortedInput(in *op, want []schema.ColID, keys sortKeys) func(*Executor) BatchIterator {
	if keys.desc == nil && lplan.Covers(in.order, want) {
		return func(e *Executor) BatchIterator { return e.build(in) }
	}
	return func(e *Executor) BatchIterator {
		return &sortIter{exec: e, in: e.build(in), keys: keys}
	}
}

func (it *sortIter) Open() error {
	it.rows = getStore()
	bytes := 0
	err := drainBatches(it.in, func(b *Batch) error {
		for sel := b.selection(); len(sel) > 0; {
			if it.rows.N == 0 {
				it.rows.startOwn(len(b.Cols))
			}
			n, w := cut(&b.Block, sel, it.exec.budgetBytes-bytes)
			it.rows.appendSel(&b.Block, sel[:n])
			sel, bytes = sel[n:], bytes+w
			if bytes > it.exec.budgetBytes {
				if err := it.writeRun(); err != nil {
					return err
				}
				bytes = 0
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(it.runs) == 0 {
		it.blk = blockIter{blk: it.rows.Block, sel: it.keys.sorted(&it.rows.Block, it.rows), target: it.exec.batchSize}
		it.out = &it.blk
		return it.out.Open()
	}
	if it.rows.N > 0 {
		if err := it.writeRun(); err != nil {
			return err
		}
	}
	merge, err := newMergeRuns(it.runs, it.keys, it.exec.batchSize)
	if err != nil {
		return err
	}
	it.out = merge
	return it.out.Open()
}

// writeRun sorts the rows held and writes them to a new run, and empties
// the store.
func (it *sortIter) writeRun() error {
	// Register the run before writing so Close drops it even when a write
	// below fails.
	run := newSpill(it.exec.pg, "sort-run")
	it.runs = append(it.runs, run)
	if err := run.addRows(&it.rows.Block, it.keys.sorted(&it.rows.Block, it.rows)); err != nil {
		return err
	}
	it.rows.Reset()
	return run.finish()
}

func (it *sortIter) NextBatch(dst *Batch) error { return it.out.NextBatch(dst) }

func (it *sortIter) Close() error {
	it.in.Close() // drainBatches already closed it on the Open path; idempotent
	if it.out != nil {
		it.out.Close()
	}
	putStore(it.rows)
	it.rows, it.out, it.blk = nil, nil, blockIter{}
	for _, r := range it.runs {
		r.drop()
	}
	it.runs = nil
	return nil
}

// mergeRuns k-way merges sorted spill runs with a heap of their next rows,
// emitting batches. Run scanners come from the spills themselves, so their
// reads carry the owning query's session attribution.
type mergeRuns struct {
	target int
	items  mergeHeap
}

// mergeItem is a run's next row: row pos of the page being read.
type mergeItem struct {
	sc   storage.Scanner
	page types.Block
	pos  int
	run  int // the run's ordinal: runs hold consecutive stretches of the input
}

// next moves to the run's next row; ok is false when the run is used up.
func (m *mergeItem) next() (ok bool, err error) {
	for m.pos++; m.pos >= m.page.N; m.pos = 0 {
		if m.page, _, ok, err = m.sc.NextPage(); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

type mergeHeap struct {
	items []*mergeItem
	keys  sortKeys
}

func (h mergeHeap) Len() int { return len(h.items) }

// Less breaks key ties by run ordinal, which keeps the merge stable: equal
// rows come out in input order, as the in-memory sort leaves them.
func (h mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if c := h.keys.compareAt(&a.page, a.pos, &b.page, b.pos); c != 0 {
		return c < 0
	}
	return a.run < b.run
}
func (h mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)   { h.items = append(h.items, x.(*mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

func newMergeRuns(runs []*spill, keys sortKeys, target int) (*mergeRuns, error) {
	if target <= 0 {
		target = DefaultBatchSize
	}
	m := &mergeRuns{target: target, items: mergeHeap{keys: keys}}
	for i, r := range runs {
		item := &mergeItem{pos: -1, run: i}
		r.store.StartScan(&item.sc, r.file)
		ok, err := item.next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.items.items = append(m.items.items, item)
		}
	}
	heap.Init(&m.items)
	return m, nil
}

func (m *mergeRuns) Open() error { return nil }

func (m *mergeRuns) NextBatch(dst *Batch) error {
	dst.Reset()
	for dst.N < m.target && m.items.Len() > 0 {
		top := m.items.items[0]
		if dst.N == 0 {
			dst.startOwn(len(top.page.Cols))
		}
		dst.appendSel(&top.page, []int32{int32(top.pos)})
		ok, err := top.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(&m.items, 0)
		} else {
			heap.Pop(&m.items)
		}
	}
	return nil
}

func (m *mergeRuns) Close() error { return nil }

// runReader reads an input sorted on cols as runs: maximal stretches of rows
// whose cols compare equal under types.CompareAt, the sort's own order. A
// run may span input batches. The run is kept in a store batch, run: all
// its rows, or, with fold set, only its first, and each stretch of the run
// within one input batch is handed to fold, as positions in the batch's
// vectors, as the run is read.
type runReader struct {
	in   BatchIterator
	cols []int
	fold func(*Batch, []int32) error
	run  *Batch // pooled: the run's rows, in vectors of its own

	b   *Batch  // the input batch being read
	sel []int32 // its selection
	pos int     // its next unread row
	eof bool
}

func (rr *runReader) Open() error {
	rr.b, rr.run, rr.sel, rr.pos, rr.eof = getBatch(), getStore(), nil, 0, false
	return rr.in.Open()
}

// next reads the next run into run; ok is false when the input is
// exhausted.
func (rr *runReader) next() (ok bool, err error) {
	rr.run.Reset()
	for {
		if rr.pos == len(rr.sel) {
			if rr.eof {
				return rr.run.N > 0, nil
			}
			if err := rr.in.NextBatch(rr.b); err != nil {
				return false, err
			}
			rr.sel, rr.pos, rr.eof = rr.b.selection(), 0, rr.b.Len() == 0
			continue
		}
		start, from, ended := rr.pos, rr.pos, false
		if rr.run.N == 0 { // the run's first row
			rr.run.startOwn(len(rr.b.Cols))
			rr.pos++
			rr.run.appendSel(&rr.b.Block, rr.sel[start:rr.pos])
			from = rr.pos
		}
		for ; rr.pos < len(rr.sel); rr.pos++ {
			if compareKeys(&rr.run.Block, rr.cols, 0, &rr.b.Block, rr.cols, int(rr.sel[rr.pos])) != 0 {
				ended = true
				break
			}
		}
		if rr.fold != nil {
			if err := rr.fold(rr.b, rr.sel[start:rr.pos]); err != nil {
				return false, err
			}
		} else {
			rr.run.appendSel(&rr.b.Block, rr.sel[from:rr.pos])
		}
		if ended {
			return true, nil
		}
	}
}

func (rr *runReader) Close() error {
	putBatch(rr.b)
	putStore(rr.run)
	rr.b, rr.run, rr.sel = nil, nil, nil
	return rr.in.Close()
}
