package exec

import (
	"container/heap"
	"slices"
	"sort"

	"aggview/internal/lplan"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// sortIter sorts its input by the given column positions (ascending,
// types.Compare order). NULL placement is pinned by types.Compare: NULL
// orders before every non-NULL value, so ascending sorts put NULLs first
// (and a DESC presentation sort puts them last). Both the in-memory path
// and the spilled run/merge path below compare through the same function,
// so batch size and spilling never change where NULLs land. Inputs within
// the memory budget sort in place; larger inputs write sorted runs to
// spill files and k-way merge them. The input drains batch-at-a-time; the
// sorted output streams out in batches from an in-memory slice or the run
// merger.
type sortIter struct {
	exec *Executor
	in   BatchIterator
	cols []int

	out  BatchIterator
	runs []*spill
}

func newSortIter(e *Executor, in BatchIterator, cols []int) *sortIter {
	return &sortIter{exec: e, in: in, cols: cols}
}

func compileSort(s *lplan.Sort) (*op, error) {
	in, err := compileOp(s.In)
	if err != nil {
		return nil, err
	}
	cols, err := colIndexes(s.In.Schema(), s.By)
	if err != nil {
		return nil, err
	}
	return &op{order: cols, newIter: func(e *Executor) BatchIterator { return newSortIter(e, e.build(in), cols) }}, nil
}

// sortedInput returns how a run opens the compiled input in sorted on cols:
// as it is when its order starts with cols, in key order, and through a
// sortIter otherwise. Asking for the keys themselves, in their order, means
// an input that skips the sort is in the order an in-memory sort of it
// would have produced.
func sortedInput(in *op, cols []int) func(*Executor) BatchIterator {
	if len(in.order) >= len(cols) && slices.Equal(in.order[:len(cols)], cols) {
		return func(e *Executor) BatchIterator { return e.build(in) }
	}
	return func(e *Executor) BatchIterator { return newSortIter(e, e.build(in), cols) }
}

func (it *sortIter) Open() error {
	var buf []types.Row
	bytes := 0
	flushRun := func() error {
		sort.SliceStable(buf, func(i, j int) bool {
			return types.CompareRows(buf[i], buf[j], it.cols) < 0
		})
		// Register the run before writing so Close drops it even when a
		// write below fails.
		run := newSpill(it.exec.pg, "sort-run")
		it.runs = append(it.runs, run)
		for _, r := range buf {
			if err := run.add(r); err != nil {
				return err
			}
		}
		if err := run.finish(); err != nil {
			return err
		}
		buf = buf[:0]
		bytes = 0
		return nil
	}

	err := drainBatches(it.in, func(row types.Row) error {
		buf = append(buf, row)
		bytes += row.DiskWidth()
		if bytes > it.exec.budgetBytes {
			return flushRun()
		}
		return nil
	})
	if err != nil {
		return err
	}

	if len(it.runs) == 0 {
		sort.SliceStable(buf, func(i, j int) bool {
			return types.CompareRows(buf[i], buf[j], it.cols) < 0
		})
		it.out = newSliceIter(buf, it.exec.batchSize)
		return it.out.Open()
	}
	if len(buf) > 0 {
		if err := flushRun(); err != nil {
			return err
		}
	}
	merge, err := newMergeRuns(it.runs, it.cols, it.exec.batchSize)
	if err != nil {
		return err
	}
	it.out = merge
	return it.out.Open()
}

func (it *sortIter) NextBatch(dst *Batch) error { return it.out.NextBatch(dst) }

func (it *sortIter) Close() error {
	it.in.Close() // drainBatches already closed it on the Open path; idempotent
	if it.out != nil {
		it.out.Close()
	}
	for _, r := range it.runs {
		r.drop()
	}
	it.runs = nil
	return nil
}

// mergeRuns k-way merges sorted spill runs with a heap, emitting batches.
// Run scanners come from the spills themselves, so their reads carry the
// owning query's session attribution.
type mergeRuns struct {
	cols   []int
	target int
	items  mergeHeap
}

type mergeItem struct {
	row types.Row
	sc  *storage.Scanner
}

type mergeHeap struct {
	items []*mergeItem
	cols  []int
}

func (h mergeHeap) Len() int { return len(h.items) }
func (h mergeHeap) Less(i, j int) bool {
	return types.CompareRows(h.items[i].row, h.items[j].row, h.cols) < 0
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

func newMergeRuns(runs []*spill, cols []int, target int) (*mergeRuns, error) {
	if target <= 0 {
		target = DefaultBatchSize
	}
	m := &mergeRuns{cols: cols, target: target, items: mergeHeap{cols: cols}}
	for _, r := range runs {
		sc := r.scan()
		row, _, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.items.items = append(m.items.items, &mergeItem{row: row, sc: sc})
		}
	}
	heap.Init(&m.items)
	return m, nil
}

func (m *mergeRuns) Open() error { return nil }

func (m *mergeRuns) NextBatch(dst *Batch) error {
	dst.Reset()
	for dst.Len() < m.target {
		if m.items.Len() == 0 {
			return nil
		}
		top := m.items.items[0]
		out := top.row
		row, _, ok, err := top.sc.Next()
		if err != nil {
			return err
		}
		if ok {
			top.row = row
			heap.Fix(&m.items, 0)
		} else {
			heap.Pop(&m.items)
		}
		dst.Append(out)
	}
	return nil
}

func (m *mergeRuns) Close() error { return nil }

// runReader reads an input sorted on cols as runs: maximal stretches of rows
// whose cols compare equal under types.CompareRows, the sort's own
// comparison. A run may span input batches. With fold set, each row of a run
// is handed to it as the run is read; otherwise the run's rows are collected
// in run. Either way rows pass by reference, which the row-immutability
// contract (doc.go) makes safe.
type runReader struct {
	in   BatchIterator
	cols []int
	fold func(types.Row) error
	run  []types.Row

	b   *Batch // the input batch being read
	pos int    // its next unread row
	eof bool
}

func (rr *runReader) Open() error {
	rr.b, rr.pos, rr.eof = getBatch(), 0, false
	return rr.in.Open()
}

// next reads the next run and returns its first row, or nil when the input
// is exhausted.
func (rr *runReader) next() (types.Row, error) {
	rr.run = rr.run[:0]
	var first types.Row
	for {
		if rr.pos == rr.b.Len() {
			if rr.eof {
				return first, nil
			}
			if err := rr.in.NextBatch(rr.b); err != nil {
				return nil, err
			}
			rr.pos, rr.eof = 0, rr.b.Len() == 0
			continue
		}
		row := rr.b.Rows[rr.pos]
		if first == nil {
			first = row
		} else if types.CompareRows(first, row, rr.cols) != 0 {
			return first, nil
		}
		if rr.fold == nil {
			rr.run = append(rr.run, row)
		} else if err := rr.fold(row); err != nil {
			return nil, err
		}
		rr.pos++
	}
}

func (rr *runReader) Close() error {
	putBatch(rr.b)
	rr.b = nil
	return rr.in.Close()
}
