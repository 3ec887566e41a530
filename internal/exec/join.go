package exec

import (
	"fmt"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/types"
)

// joinSpec holds the compiled pieces shared by the join algorithms: the key
// column positions of the equi-join conjuncts on each side, the residual
// predicate compiled against the concatenated schema, and the output
// projection.
type joinSpec struct {
	lKeys, rKeys []int          // equi-join column positions (parallel slices)
	residual     expr.Predicate // nil = none
	proj         []int          // output projection over concat schema; nil = all
	lWidth       int            // arity of the left input
	rWidth       int            // arity of the right input (for outer-join padding)
}

// joinCommon is one run's view of a joinSpec: the run's parameters and the
// buffers the join's output rows are built in.
type joinCommon struct {
	*joinSpec
	params  []types.Value
	scratch types.Row // reusable concat buffer for residual evaluation
	nulls   types.Row // all-NULL row standing in for the missing side of a padded row
	arena   rowArena  // backs emitted output rows
}

func joinSpecOf(j *lplan.Join) (*joinSpec, error) {
	ls, rs := j.L.Schema(), j.R.Schema()
	concat := ls.Concat(rs)
	var residualPreds []expr.Expr
	var lKeys, rKeys []int
	for _, p := range j.Preds {
		lc, rc, ok := expr.EquiJoin(p)
		if ok {
			// Normalize: lc on the left input.
			if !ls.Contains(lc) && ls.Contains(rc) {
				lc, rc = rc, lc
			}
			if ls.Contains(lc) && rs.Contains(rc) {
				li, err := ls.IndexOf(lc)
				if err != nil {
					return nil, err
				}
				ri, err := rs.IndexOf(rc)
				if err != nil {
					return nil, err
				}
				lKeys = append(lKeys, li)
				rKeys = append(rKeys, ri)
				continue
			}
		}
		residualPreds = append(residualPreds, p)
	}
	var residual expr.Predicate
	var err error
	if len(residualPreds) > 0 {
		if residual, err = compilePreds(residualPreds, concat); err != nil {
			return nil, err
		}
	}
	var proj []int
	if j.Proj != nil {
		proj, err = colIndexes(concat, j.Proj)
		if err != nil {
			return nil, err
		}
	}
	return &joinSpec{lKeys: lKeys, rKeys: rKeys, residual: residual, proj: proj,
		lWidth: len(ls), rWidth: len(rs)}, nil
}

func compileJoin(j *lplan.Join) (func(*Executor) BatchIterator, error) {
	spec, err := joinSpecOf(j)
	if err != nil {
		return nil, err
	}
	l, err := compileOp(j.L)
	if err != nil {
		return nil, err
	}
	r, err := compileOp(j.R)
	if err != nil {
		return nil, err
	}
	newJC := func(e *Executor) *joinCommon {
		return &joinCommon{joinSpec: spec, params: e.params, arena: rowArena{rec: &e.arenas}}
	}
	method := j.Method
	if (method == lplan.JoinHash || method == lplan.JoinUnset) && len(spec.lKeys) == 0 {
		method = lplan.JoinBlockNL // no equi-join conjunct: degrade to block nested loops
	}
	switch method {
	case lplan.JoinHash, lplan.JoinUnset:
		return func(e *Executor) BatchIterator {
			return &hashJoinIter{exec: e, jc: newJC(e), target: e.batchSize, joinType: j.Type,
				probeSrc: e.build(l), buildOp: r}
		}, nil
	case lplan.JoinBlockNL:
		_, innerIsScan := j.R.(*lplan.Scan)
		return func(e *Executor) BatchIterator {
			it := &blockNLIter{exec: e, jc: newJC(e), target: e.batchSize, joinType: j.Type,
				outer: newRowIter(e.build(l))}
			if innerIsScan {
				it.inner = func() BatchIterator { return e.build(r) }
			} else {
				it.matSrc = e.build(r)
			}
			return it
		}, nil
	case lplan.JoinMerge:
		// Validate has refused an outer merge join.
		if len(spec.lKeys) == 0 {
			return nil, fmt.Errorf("exec: merge join requires an equi-join predicate")
		}
		return func(e *Executor) BatchIterator {
			return &mergeJoinIter{jc: newJC(e), target: e.batchSize,
				l: newRowIter(newSortIter(e, e.build(l), spec.lKeys)),
				r: newRowIter(newSortIter(e, e.build(r), spec.rKeys))}
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
	}
}

// emit applies residual predicates and projection to a joined row pair.
func (jc *joinCommon) emit(l, r types.Row) (types.Row, bool, error) {
	if jc.residual != nil {
		// Only the residual predicate needs the pair as one row; it reads
		// it from a reusable scratch buffer the emitted row never aliases.
		jc.scratch = append(append(jc.scratch[:0], l...), r...)
		ok, err := jc.residual(jc.scratch, jc.params)
		if err != nil || !ok {
			return nil, false, err
		}
	}
	return jc.project(l, r), true, nil
}

// project carves the output row of the pair (l, r): the projection's
// columns of their concatenation, taken from whichever side holds each.
func (jc *joinCommon) project(l, r types.Row) types.Row {
	if jc.proj == nil {
		out := jc.arena.carve(len(l) + len(r))
		copy(out[copy(out, l):], r)
		return out
	}
	out := jc.arena.carve(len(jc.proj))
	for i, j := range jc.proj {
		if j < len(l) {
			out[i] = l[j]
		} else {
			out[i] = r[j-len(l)]
		}
	}
	return out
}

// emitPadded emits an outer-join row with the missing side NULL-padded
// (l nil pads the left columns, r nil the right). Padded rows bypass the
// residual predicate — the ON condition already failed, that is why the row
// is padded — but the output projection still applies.
func (jc *joinCommon) emitPadded(l, r types.Row) types.Row {
	if jc.nulls == nil {
		jc.nulls = make(types.Row, max(jc.lWidth, jc.rWidth)) // the zero Value is NULL
	}
	if l == nil {
		l = jc.nulls[:jc.lWidth]
	}
	if r == nil {
		r = jc.nulls[:jc.rWidth]
	}
	return jc.project(l, r)
}

// rowHasNullKey reports whether any of the row's key positions is NULL.
// A NULL join key never matches anything (NULL = x is UNKNOWN), even
// though types.Compare orders NULLs equal.
func rowHasNullKey(r types.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].IsNull() {
			return true
		}
	}
	return false
}

// fillFromStep is the shared NextBatch body of the join and sort-aggregate
// operators whose matching logic is inherently row- or group-wise: step
// produces one output row at a time (over batch-fed inputs), and the batch
// layer simply accumulates up to target rows per call.
func fillFromStep(dst *Batch, target int, step func() (types.Row, bool, error)) error {
	dst.Reset()
	for dst.Len() < target {
		row, ok, err := step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		dst.Append(row)
	}
	return nil
}

// hashJoinIter builds a key table on the right input and probes it with the
// left a batch at a time: pull a probe batch, hash its key columns, and for
// each probe row walk the chain of build rows under its key, writing joined
// rows straight into the output batch; a call that fills the batch resumes
// mid-chain on the next. If the build side exceeds the budget it falls back
// to Grace partitioning, writing both inputs to spill partitions and
// joining them pairwise with the same code.
//
// Outer joins: the probe (left) side is the preserved side of a LEFT join —
// a probe row whose ON condition matches no build row is emitted once,
// right-padded with NULLs. FULL joins additionally flag every matched build
// row and emit the unmatched remainder left-padded after the probe side
// drains (per partition on the grace path, which is sound because Grace
// partitions by key, so a build row can only match probe rows of its own
// partition). Build rows with NULL keys never match (NULL = x is UNKNOWN)
// and surface only through the FULL-outer drain.
type hashJoinIter struct {
	exec     *Executor
	jc       *joinCommon
	target   int
	joinType lplan.JoinType
	probeSrc BatchIterator // the built left child
	buildOp  *op           // the right child, built at Open

	// Current build table (whole input in memory, or one grace partition).
	// Build rows with one key are chained through next in ascending order
	// from the key's head, so matches come out in build order.
	build        rowStore
	buildMatched []bool   // FULL outer only: build rows already matched
	tab          keyTable // build key -> entry
	head         []int32  // per entry: first build row with the key
	next         []int32  // per build row: the next with the same key, -1 = last

	probe      BatchIterator // probeSrc, or the current partition's probe rows
	pb         *Batch        // probe batch being joined
	hashes     []uint64      // key hashes of pb's rows (of build rows while loading)
	pos        int           // pb row in flight, or the next one to start
	chain      int32         // in flight: next build row to try, -1 = chain used up
	curActive  bool          // pb.Rows[pos] is in flight (padding not yet decided)
	curMatched bool          // the in-flight probe row matched at least once
	probeDone  bool          // probe is exhausted for the current build table
	drainPos   int           // FULL outer, after the probe: next build row to pad if unmatched

	// grace path (rParts != nil)
	lParts, rParts []*spill
	part           int
	probeRows      []types.Row // current partition's probe rows
}

// loadBuild indexes the build rows. NULL-keyed rows stay in the store (the
// FULL-outer drain must see them) but get no entry.
func (it *hashJoinIter) loadBuild() {
	n := it.build.n
	it.buildMatched, it.drainPos = nil, 0
	if it.joinType == lplan.JoinFull {
		it.buildMatched = make([]bool, n)
	}
	keys := it.jc.rKeys
	it.tab.init(len(keys), n)
	if cap(it.next) < 2*n {
		it.next = make([]int32, 2*n)
	}
	it.next, it.head = it.next[:n], it.next[n:n]
	// Rows go in last first, each pushed onto the front of its key's chain,
	// which leaves every chain ascending without tracking chain tails.
	for c := len(it.build.chunks) - 1; c >= 0; c-- {
		rows := it.build.chunks[c].Rows
		it.hashes = hashKeys(rows, keys, it.hashes)
		for i := len(rows) - 1; i >= 0; i-- {
			if rowHasNullKey(rows[i], keys) {
				continue
			}
			e := it.tab.lookup(it.hashes[i], rows[i], keys)
			if e < 0 {
				e = it.tab.insert(it.hashes[i], rows[i], keys)
				it.head = append(it.head, -1)
			}
			r := c*DefaultBatchSize + i
			it.next[r], it.head[e] = it.head[e], int32(r)
		}
	}
}

func (it *hashJoinIter) Open() error {
	build := it.exec.build(it.buildOp)
	it.pb = getBatch()
	// Materialize the build side, counting bytes.
	bytes := 0
	if err := drainBatches(build, func(r types.Row) error {
		it.build.add(r)
		bytes += r.DiskWidth()
		return nil
	}); err != nil {
		return err
	}

	if bytes <= it.exec.budgetBytes {
		it.loadBuild()
		it.probe = it.probeSrc
		return it.probe.Open()
	}

	// Grace: write build rows to partitions, then probe rows. The partition
	// slices are assigned to the iterator before any write, so Close drops
	// them even when a write below fails.
	it.rParts = make([]*spill, spillPartitions)
	it.lParts = make([]*spill, spillPartitions)
	for i := range it.rParts {
		it.rParts[i] = newSpill(it.exec.pg, "hj-build")
		it.lParts[i] = newSpill(it.exec.pg, "hj-probe")
	}
	var buf []byte
	partition := func(parts []*spill, keys []int) func(types.Row) error {
		return func(r types.Row) error {
			buf = r.AppendKey(buf[:0], keys)
			return parts[partitionOf(buf)].add(r)
		}
	}
	for i, add := 0, partition(it.rParts, it.jc.rKeys); i < it.build.n; i++ {
		if err := add(it.build.at(i)); err != nil {
			return err
		}
	}
	it.build.release()
	if err := drainBatches(it.probeSrc, partition(it.lParts, it.jc.lKeys)); err != nil {
		return err
	}
	for i := range it.rParts {
		if err := it.rParts[i].finish(); err != nil {
			return err
		}
		if err := it.lParts[i].finish(); err != nil {
			return err
		}
	}
	it.part, it.probeDone = -1, true // no partition loaded yet
	return nil
}

// nextPartition loads the next partition pair; ok is false when none is left.
func (it *hashJoinIter) nextPartition() (ok bool, err error) {
	if it.part+1 >= spillPartitions {
		return false, nil
	}
	it.part++
	it.build.release()
	if err := drainBatches(&spillIter{sp: it.rParts[it.part], target: it.target}, func(r types.Row) error {
		it.build.add(r)
		return nil
	}); err != nil {
		return false, err
	}
	it.loadBuild()
	it.probeRows = it.probeRows[:0]
	if err := drainBatches(&spillIter{sp: it.lParts[it.part], target: it.target}, func(l types.Row) error {
		it.probeRows = append(it.probeRows, l)
		return nil
	}); err != nil {
		return false, err
	}
	it.probe = newSliceIter(it.probeRows, it.target)
	it.probeDone = false
	return true, nil
}

func (it *hashJoinIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for {
		if it.curActive {
			// Walk what is left of the in-flight probe row's chain.
			l := it.pb.Rows[it.pos]
			for it.chain >= 0 {
				if dst.Len() >= it.target {
					return nil
				}
				idx := it.chain
				it.chain = it.next[idx]
				out, ok, err := it.jc.emit(l, it.build.at(int(idx)))
				if err != nil {
					return err
				}
				if ok {
					it.curMatched = true
					if it.buildMatched != nil {
						it.buildMatched[idx] = true
					}
					dst.Append(out)
				}
			}
			// The chain is used up: LEFT/FULL pad the row if nothing matched.
			if !it.curMatched && it.joinType.Outer() {
				if dst.Len() >= it.target {
					return nil
				}
				dst.Append(it.jc.emitPadded(l, nil))
			}
			it.curActive = false
			it.pos++
		}
		switch {
		case dst.Len() >= it.target:
			return nil
		case it.pos < it.pb.Len():
			// Start the next probe row of the batch.
			l := it.pb.Rows[it.pos]
			it.curActive, it.curMatched, it.chain = true, false, -1
			if !rowHasNullKey(l, it.jc.lKeys) {
				if e := it.tab.lookup(it.hashes[it.pos], l, it.jc.lKeys); e >= 0 {
					it.chain = it.head[e]
				}
			}
		case !it.probeDone:
			if err := it.probe.NextBatch(it.pb); err != nil {
				return err
			}
			it.pos = 0
			it.hashes = hashKeys(it.pb.Rows, it.jc.lKeys, it.hashes)
			it.probeDone = it.pb.Len() == 0
		case it.drainPos < len(it.buildMatched):
			// FULL outer: emit the build rows no probe row matched.
			for ; it.drainPos < len(it.buildMatched); it.drainPos++ {
				if it.buildMatched[it.drainPos] {
					continue
				}
				if dst.Len() >= it.target {
					return nil
				}
				dst.Append(it.jc.emitPadded(nil, it.build.at(it.drainPos)))
			}
		default:
			// This build table is finished: the in-memory join ends here,
			// the grace join moves to its next partition pair.
			if it.rParts == nil {
				return nil
			}
			if ok, err := it.nextPartition(); err != nil || !ok {
				return err
			}
		}
	}
}

func (it *hashJoinIter) Close() error {
	// Unconditional cascade: Close is idempotent at every lifecycle point
	// (before Open, after a failed Open, mid-join). On the grace path the
	// probe source was already closed by drainBatches; closing again is
	// harmless.
	it.probeSrc.Close()
	putBatch(it.pb)
	it.pb = nil
	it.build.release()
	for _, p := range it.lParts {
		p.drop()
	}
	for _, p := range it.rParts {
		p.drop()
	}
	it.lParts, it.rParts = nil, nil
	return nil
}

// blockNLIter reads the outer in memory-budget blocks and rescans the inner
// once per block. A base-table inner is rescanned directly (the buffer pool
// charges the repeated reads); any other inner is materialized to a spill
// file first.
//
// Outer joins: the block (left) side is the preserved side of a LEFT join —
// after each block's inner rescan completes, unmatched block rows are
// emitted right-padded. FULL joins additionally track per-inner-row match
// flags by scan ordinal (inner rescans are deterministic, so ordinal i is
// the same row in every pass) and emit the never-matched inner rows
// left-padded in one final rescan after the last block.
type blockNLIter struct {
	exec     *Executor
	jc       *joinCommon
	target   int
	joinType lplan.JoinType
	outer    *rowIter
	inner    func() BatchIterator // fresh inner scan per block
	// matSrc is a non-base-table inner, materialized to a spill at Open
	// (not at build time: build allocates no resources, so a tree that is
	// built but never opened leaks no files).
	matSrc BatchIterator

	spilled *spill
	block   []types.Row
	inIt    *rowIter
	inRow   types.Row
	pos     int
	done    bool

	blockMatched []bool // LEFT/FULL: per-block-row match flags
	padPos       int    // cursor over block rows while padding
	padding      bool
	innerMatched []bool // FULL: per-inner-ordinal match flags, OR'd across blocks
	innerOrd     int    // ordinal of inRow within the current inner pass
	finalIt      *rowIter
	finalOrd     int
	finalDone    bool
}

func (it *blockNLIter) Open() error {
	if it.matSrc != nil && it.spilled == nil {
		// Materialize the inner once, then scan the spill per block. The
		// spill is assigned before writing so Close drops it on any error.
		sp := newSpill(it.exec.pg, "bnl-inner")
		it.spilled = sp
		if err := drainBatches(it.matSrc, func(r types.Row) error { return sp.add(r) }); err != nil {
			return err
		}
		if err := sp.finish(); err != nil {
			return err
		}
		it.inner = func() BatchIterator { return &spillIter{sp: sp, target: it.exec.batchSize} }
	}
	if err := it.outer.Open(); err != nil {
		return err
	}
	return it.nextBlock()
}

// nextBlock fills the outer block and opens a fresh inner scan.
func (it *blockNLIter) nextBlock() error {
	it.block = it.block[:0]
	bytes := 0
	budget := it.exec.budgetBytes - 2*4096 // leave pages for the inner stream
	if budget < 4096 {
		budget = 4096
	}
	for bytes < budget {
		row, ok, err := it.outer.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.block = append(it.block, row)
		bytes += row.DiskWidth()
	}
	if len(it.block) == 0 {
		it.done = true
		return nil
	}
	inRows := newRowIter(it.inner())
	if err := inRows.Open(); err != nil {
		inRows.Close()
		return err
	}
	if it.inIt != nil {
		it.inIt.Close()
	}
	it.inIt = inRows
	it.inRow = nil
	it.pos = 0
	it.innerOrd = -1
	if it.joinType.Outer() {
		it.blockMatched = make([]bool, len(it.block))
	}
	return nil
}

func (it *blockNLIter) NextBatch(dst *Batch) error {
	return fillFromStep(dst, it.target, it.step)
}

func (it *blockNLIter) step() (types.Row, bool, error) {
	for {
		// Emit right-padded rows for the block just finished.
		if it.padding {
			for it.padPos < len(it.block) {
				i := it.padPos
				it.padPos++
				if !it.blockMatched[i] {
					return it.jc.emitPadded(it.block[i], nil), true, nil
				}
			}
			it.padding = false
			it.inIt.Close()
			it.inIt = nil
			if err := it.nextBlock(); err != nil {
				return nil, false, err
			}
			continue
		}
		if it.done {
			if it.joinType == lplan.JoinFull && !it.finalDone {
				return it.stepFinalDrain()
			}
			return nil, false, nil
		}
		if it.inRow == nil {
			r, ok, err := it.inIt.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				if it.joinType.Outer() {
					// Pad this block's unmatched rows before advancing;
					// padding mode closes the inner and loads the next block.
					it.padding = true
					it.padPos = 0
					continue
				}
				it.inIt.Close()
				it.inIt = nil
				if err := it.nextBlock(); err != nil {
					return nil, false, err
				}
				continue
			}
			it.inRow = r
			it.pos = 0
			it.innerOrd++
			if it.joinType == lplan.JoinFull && it.innerOrd >= len(it.innerMatched) {
				it.innerMatched = append(it.innerMatched, false)
			}
		}
		for it.pos < len(it.block) {
			l := it.block[it.pos]
			i := it.pos
			it.pos++
			// Equi keys (if any) must match; residual must pass.
			if !keysEqual(l, it.inRow, it.jc.lKeys, it.jc.rKeys) {
				continue
			}
			out, ok, err := it.jc.emit(l, it.inRow)
			if err != nil {
				return nil, false, err
			}
			if ok {
				if it.blockMatched != nil {
					it.blockMatched[i] = true
				}
				if it.joinType == lplan.JoinFull {
					it.innerMatched[it.innerOrd] = true
				}
				return out, true, nil
			}
		}
		it.inRow = nil
	}
}

// stepFinalDrain rescans the inner once after the last block and emits
// left-padded rows for inner ordinals no block ever matched. Rescans are
// deterministic (heap order for base tables, spill order otherwise), so the
// ordinal identifies the same row as in the per-block passes.
func (it *blockNLIter) stepFinalDrain() (types.Row, bool, error) {
	if it.finalIt == nil {
		rows := newRowIter(it.inner())
		if err := rows.Open(); err != nil {
			rows.Close()
			return nil, false, err
		}
		it.finalIt = rows
		it.finalOrd = -1
	}
	for {
		r, ok, err := it.finalIt.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			it.finalIt.Close()
			it.finalIt = nil
			it.finalDone = true
			return nil, false, nil
		}
		it.finalOrd++
		if it.finalOrd < len(it.innerMatched) && it.innerMatched[it.finalOrd] {
			continue
		}
		return it.jc.emitPadded(nil, r), true, nil
	}
}

func keysEqual(l, r types.Row, lKeys, rKeys []int) bool {
	for i := range lKeys {
		// NULL keys never join: NULL = x (and NULL = NULL) is UNKNOWN,
		// even though types.Compare orders NULLs equal.
		if l[lKeys[i]].IsNull() || r[rKeys[i]].IsNull() {
			return false
		}
		if types.Compare(l[lKeys[i]], r[rKeys[i]]) != 0 {
			return false
		}
	}
	return true
}

func (it *blockNLIter) Close() error {
	it.outer.Close()
	if it.matSrc != nil {
		it.matSrc.Close()
	}
	if it.inIt != nil {
		it.inIt.Close()
		it.inIt = nil
	}
	if it.finalIt != nil {
		it.finalIt.Close()
		it.finalIt = nil
	}
	it.spilled.drop()
	it.spilled = nil
	return nil
}

// mergeJoinIter joins two inputs sorted on their equi-join keys, buffering
// the right-side group of equal keys. Both sorted inputs stream through
// rowIter adapters (group-boundary logic is inherently row-wise); the sorts
// underneath still drain their children batch-at-a-time.
type mergeJoinIter struct {
	jc     *joinCommon
	target int
	l, r   *rowIter

	curL  types.Row
	group []types.Row // right rows equal to curL's key
	gpos  int
	rRow  types.Row // lookahead on the right
	rDone bool
}

func (it *mergeJoinIter) Open() error {
	if err := it.l.Open(); err != nil {
		return err
	}
	if err := it.r.Open(); err != nil {
		return err
	}
	r, ok, err := it.r.Next()
	if err != nil {
		return err
	}
	it.rRow, it.rDone = r, !ok
	return nil
}

// advanceGroup loads the right-side group matching key, consuming the right
// iterator up to the first greater key.
func (it *mergeJoinIter) advanceGroup(key types.Row) error {
	it.group = it.group[:0]
	for !it.rDone {
		c := compareKeys(key, it.jc.lKeys, it.rRow, it.jc.rKeys)
		if c < 0 {
			break
		}
		if c == 0 {
			it.group = append(it.group, it.rRow)
		}
		r, ok, err := it.r.Next()
		if err != nil {
			return err
		}
		it.rRow, it.rDone = r, !ok
	}
	return nil
}

func compareKeys(l types.Row, lKeys []int, r types.Row, rKeys []int) int {
	for i := range lKeys {
		if c := types.Compare(l[lKeys[i]], r[rKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func (it *mergeJoinIter) NextBatch(dst *Batch) error {
	return fillFromStep(dst, it.target, it.step)
}

func (it *mergeJoinIter) step() (types.Row, bool, error) {
	for {
		for it.curL != nil && it.gpos < len(it.group) {
			r := it.group[it.gpos]
			it.gpos++
			out, ok, err := it.jc.emit(it.curL, r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		l, ok, err := it.l.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		// A NULL key never matches (NULL = x is UNKNOWN): give the row an
		// empty group without consuming the right side. (NULLs sort first,
		// so right-side NULL-keyed rows are consumed as smaller keys once a
		// non-NULL left key arrives.)
		if rowHasNullKey(l, it.jc.lKeys) {
			it.group = it.group[:0]
		} else if it.curL == nil || compareKeys(l, it.jc.lKeys, it.curL, it.jc.lKeys) != 0 {
			// Reuse the group if the key is unchanged (duplicate left keys).
			if err := it.advanceGroup(l); err != nil {
				return nil, false, err
			}
		}
		it.curL = l
		it.gpos = 0
	}
}

func (it *mergeJoinIter) Close() error {
	// Always cascade: if the left sort opened and spilled runs but the right
	// sort's Open failed, the old opened-only guard leaked the left's runs.
	it.l.Close()
	it.r.Close()
	return nil
}
