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

func compileJoin(j *lplan.Join) (*op, error) {
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
		return &op{newIter: func(e *Executor) BatchIterator {
			return &hashJoinIter{exec: e, jc: newJC(e), target: e.batchSize, joinType: j.Type,
				probeSrc: e.build(l), buildOp: r}
		}}, nil
	case lplan.JoinBlockNL:
		_, innerIsScan := j.R.(*lplan.Scan)
		return &op{newIter: func(e *Executor) BatchIterator {
			it := &blockNLIter{exec: e, jc: newJC(e), target: e.batchSize, joinType: j.Type, outer: e.build(l)}
			if innerIsScan {
				it.inner = func() BatchIterator { return e.build(r) }
			} else {
				it.matSrc = e.build(r)
			}
			return it
		}}, nil
	case lplan.JoinMerge:
		// Validate has refused an outer merge join.
		if len(spec.lKeys) == 0 {
			return nil, fmt.Errorf("exec: merge join requires an equi-join predicate")
		}
		lIn, rIn := sortedInput(l, spec.lKeys), sortedInput(r, spec.rKeys)
		o := &op{newIter: func(e *Executor) BatchIterator {
			return &mergeJoinIter{jc: newJC(e), target: e.batchSize,
				l: runReader{in: lIn(e), cols: spec.lKeys}, r: runReader{in: rIn(e), cols: spec.rKeys}}
		}}
		if spec.proj == nil { // the left columns come first, in left-key order
			o.order = spec.lKeys
		}
		return o, nil
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
// file first. Each inner row of a pass meets the block's rows in order, so
// output is inner-major within a block; a call that fills the batch resumes
// mid-row on the next.
//
// Outer joins: the block (left) side is the preserved side of a LEFT join —
// after each block's inner pass completes, unmatched block rows are
// emitted right-padded. FULL joins additionally track per-inner-row match
// flags by scan ordinal (inner rescans are deterministic, heap order for a
// base table and spill order otherwise, so ordinal i is the same row in every
// pass) and, after the last block, make one more pass that emits the
// never-matched inner rows left-padded.
type blockNLIter struct {
	exec     *Executor
	jc       *joinCommon
	target   int
	joinType lplan.JoinType
	outer    BatchIterator
	inner    func() BatchIterator // fresh inner scan per pass
	// matSrc is a non-base-table inner, materialized to a spill at Open
	// (not at build time: build allocates no resources, so a tree that is
	// built but never opened leaks no files).
	matSrc  BatchIterator
	spilled *spill

	ob           *Batch // the outer batch blocks are cut from
	opos         int    // its next row
	oEOF         bool
	block        []types.Row
	blockMatched []bool // LEFT/FULL: per-block-row match flags
	padPos       int    // LEFT/FULL, after a pass: next block row to pad if unmatched

	in           BatchIterator // the inner pass in progress; nil between passes
	ib           *Batch        // the inner batch being joined
	ipos         int           // its row in flight
	bpos         int           // the next block row to try against it
	ord          int           // the in-flight row's ordinal within the pass
	innerMatched []bool        // FULL: per-inner-ordinal match flags, OR'd across blocks
	final        bool          // FULL: the pass after the last block
	done         bool
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
	it.ob, it.ib = getBatch(), getBatch()
	if err := it.outer.Open(); err != nil {
		return err
	}
	return it.nextBlock()
}

// nextBlock cuts the next block from the outer and starts an inner pass over
// it. The block ends at the row whose width reaches the budget, read
// row-exact from the outer batch, so blocks, passes and page IO do not
// depend on the batch size. Once the outer is exhausted, a FULL join starts
// its final pass and any other join is done.
func (it *blockNLIter) nextBlock() error {
	it.block = it.block[:0]
	budget := max(it.exec.budgetBytes-2*4096, 4096) // leave pages for the inner stream
	for bytes := 0; bytes < budget; {
		if it.opos == it.ob.Len() {
			if it.oEOF {
				break
			}
			if err := it.outer.NextBatch(it.ob); err != nil {
				return err
			}
			it.opos, it.oEOF = 0, it.ob.Len() == 0
			continue
		}
		row := it.ob.Rows[it.opos]
		it.opos++
		it.block = append(it.block, row)
		bytes += row.DiskWidth()
	}
	if len(it.block) == 0 {
		if it.final || it.joinType != lplan.JoinFull {
			it.done = true
			return nil
		}
		it.final = true
	}
	if it.joinType.Outer() {
		it.blockMatched = make([]bool, len(it.block))
	}
	it.padPos, it.ord = 0, 0
	it.in = it.inner()
	return it.in.Open()
}

func (it *blockNLIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for !it.done && dst.Len() < it.target {
		switch {
		case it.ipos < it.ib.Len() && it.final:
			if r := it.ib.Rows[it.ipos]; it.ord >= len(it.innerMatched) || !it.innerMatched[it.ord] {
				dst.Append(it.jc.emitPadded(nil, r))
			}
			it.ipos, it.ord = it.ipos+1, it.ord+1
		case it.ipos < it.ib.Len():
			r := it.ib.Rows[it.ipos]
			if it.joinType == lplan.JoinFull && it.ord == len(it.innerMatched) {
				it.innerMatched = append(it.innerMatched, false)
			}
			for ; it.bpos < len(it.block); it.bpos++ {
				if dst.Len() >= it.target {
					return nil
				}
				// Equi keys (if any) must match; residual must pass.
				l := it.block[it.bpos]
				if !keysEqual(l, r, it.jc.lKeys, it.jc.rKeys) {
					continue
				}
				out, ok, err := it.jc.emit(l, r)
				if err != nil {
					return err
				}
				if ok {
					if it.blockMatched != nil {
						it.blockMatched[it.bpos] = true
					}
					if it.joinType == lplan.JoinFull {
						it.innerMatched[it.ord] = true
					}
					dst.Append(out)
				}
			}
			it.ipos, it.bpos, it.ord = it.ipos+1, 0, it.ord+1
		case it.in != nil:
			// Pull the pass's next inner batch; an empty one ends the pass.
			if err := it.in.NextBatch(it.ib); err != nil {
				return err
			}
			it.ipos = 0
			if it.ib.Len() == 0 {
				it.in.Close()
				it.in = nil
			}
		case it.joinType.Outer() && it.padPos < len(it.block):
			if !it.blockMatched[it.padPos] {
				dst.Append(it.jc.emitPadded(it.block[it.padPos], nil))
			}
			it.padPos++
		default:
			if err := it.nextBlock(); err != nil {
				return err
			}
		}
	}
	return nil
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
	if it.in != nil {
		it.in.Close()
		it.in = nil
	}
	putBatch(it.ob)
	putBatch(it.ib)
	it.ob, it.ib = nil, nil
	it.spilled.drop()
	it.spilled = nil
	return nil
}

// mergeJoinIter joins two inputs sorted on their equi-join keys run by run:
// a left run and the right run with equal keys join as their cross product,
// left-major, and a call that fills the batch resumes mid-product on the
// next. A NULL key never matches (NULL = x is UNKNOWN): a left run with one
// is skipped without consuming the right side, and right runs with smaller
// keys, NULL keys included (NULLs sort first), are passed over.
type mergeJoinIter struct {
	jc     *joinCommon
	target int
	l, r   runReader // l.run × r.run is the product in flight
	li, ri int       // its next pair
}

func (it *mergeJoinIter) Open() error {
	if err := it.l.Open(); err != nil {
		return err
	}
	if err := it.r.Open(); err != nil {
		return err
	}
	_, err := it.r.next()
	return err
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
	dst.Reset()
	for {
		for lRun, rRun := it.l.run, it.r.run; it.li < len(lRun); it.li, it.ri = it.li+1, 0 {
			for ; it.ri < len(rRun); it.ri++ {
				if dst.Len() >= it.target {
					return nil
				}
				out, ok, err := it.jc.emit(lRun[it.li], rRun[it.ri])
				if err != nil {
					return err
				}
				if ok {
					dst.Append(out)
				}
			}
		}
		if dst.Len() >= it.target {
			return nil
		}
		// The product is done: read the next left run and find its match.
		l, err := it.l.next()
		if err != nil || l == nil {
			return err
		}
		it.li = 0
		if rowHasNullKey(l, it.jc.lKeys) {
			it.li = len(it.l.run)
			continue
		}
		for len(it.r.run) > 0 && compareKeys(l, it.jc.lKeys, it.r.run[0], it.jc.rKeys) > 0 {
			if _, err := it.r.next(); err != nil {
				return err
			}
		}
		if len(it.r.run) == 0 || compareKeys(l, it.jc.lKeys, it.r.run[0], it.jc.rKeys) != 0 {
			it.li = len(it.l.run) // no right run matches: the product is empty
		}
	}
}

func (it *mergeJoinIter) Close() error {
	// Always cascade: if the left sort opened and spilled runs but the right
	// sort's Open failed, the left's runs must still be dropped.
	it.l.Close()
	it.r.Close()
	return nil
}
