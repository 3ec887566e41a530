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
// entry is set (desc nil when lplan.Sort.Ascending). compare is the one row
// order every sort path uses: types.Compare per key, negated for DESC.
type sortKeys struct {
	cols []int
	desc []bool
}

func (k sortKeys) compare(a, b types.Row) int {
	for i, c := range k.cols {
		if d := types.Compare(a[c], b[c]); d != 0 {
			if k.desc != nil && k.desc[i] {
				return -d
			}
			return d
		}
	}
	return 0
}

// sortStable sorts rows by the keys, equal rows staying in input order: an
// O(n log n) unstable sort of the rows' ordinals whose key ties fall to the
// ordinal, then the permutation applied in place. Ordinals hold no
// pointers, so their swaps pass no write barrier. ord is scratch space,
// returned grown for the next call.
func (k sortKeys) sortStable(rows []types.Row, ord []int) []int {
	if cap(ord) < len(rows) {
		ord = make([]int, len(rows))
	}
	ord = ord[:len(rows)]
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int {
		if c := k.compare(rows[a], rows[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Position i takes rows[ord[i]]: follow each cycle of the permutation
	// once, marking visited positions with -1.
	for i := range ord {
		if ord[i] < 0 {
			continue
		}
		first, j := rows[i], i
		for {
			from := ord[j]
			ord[j] = -1
			if from == i {
				rows[j] = first
				break
			}
			rows[j], j = rows[from], from
		}
	}
	return ord
}

// sortIter sorts its input stably by its keys. NULL orders before every
// non-NULL value (types.Compare), so an ascending key puts NULLs first and a
// DESC key last. The in-memory path, the spilled run/merge path below and
// the Naive oracle all compare through sortKeys.compare, and the merge
// breaks ties by run ordinal, so neither batch size nor spilling moves a
// NULL or a tie. Inputs within the memory budget sort in place; larger
// inputs write sorted runs to spill files and k-way merge them. The output
// streams out in batches from an in-memory slice or the run merger.
type sortIter struct {
	exec *Executor
	in   BatchIterator
	keys sortKeys

	out  BatchIterator
	runs []*spill
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
	return func(e *Executor) BatchIterator { return &sortIter{exec: e, in: e.build(in), keys: keys} }
}

func (it *sortIter) Open() error {
	var buf []types.Row
	var ord []int
	bytes := 0
	flushRun := func() error {
		ord = it.keys.sortStable(buf, ord)
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
		it.keys.sortStable(buf, nil)
		it.out = newSliceIter(buf, it.exec.batchSize)
		return it.out.Open()
	}
	if len(buf) > 0 {
		if err := flushRun(); err != nil {
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
	target int
	items  mergeHeap
}

type mergeItem struct {
	row types.Row
	sc  *storage.Scanner
	run int // the run's ordinal: runs hold consecutive stretches of the input
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
	if c := h.keys.compare(a.row, b.row); c != 0 {
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
		sc := r.scan()
		row, _, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.items.items = append(m.items.items, &mergeItem{row: row, sc: sc, run: i})
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
// comparison. A run may span input batches. With fold set, each stretch of
// a run within one input batch is handed to it as the run is read;
// otherwise the run's rows are collected in run. Either way rows pass by
// reference, which the row-immutability contract (doc.go) makes safe.
type runReader struct {
	in   BatchIterator
	cols []int
	fold func([]types.Row) error
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
		start, ended := rr.pos, false
		if first == nil {
			first = rr.b.Rows[rr.pos]
			rr.pos++
		}
		for ; rr.pos < rr.b.Len(); rr.pos++ {
			if types.CompareRows(first, rr.b.Rows[rr.pos], rr.cols) != 0 {
				ended = true
				break
			}
		}
		stretch := rr.b.Rows[start:rr.pos]
		if rr.fold == nil {
			rr.run = append(rr.run, stretch...)
		} else if err := rr.fold(stretch); err != nil {
			return nil, err
		}
		if ended {
			return first, nil
		}
	}
}

func (rr *runReader) Close() error {
	putBatch(rr.b)
	rr.b = nil
	return rr.in.Close()
}
