package exec

import (
	"fmt"
	"slices"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// joinSpec holds the compiled pieces shared by the join algorithms: the key
// column positions of the equi-join conjuncts on each side, the residual
// predicate, and the output projection, all over the rows the inputs emit.
// A hash join tests the residual's conjuncts that read the build (right)
// input alone once per build row, as build; the rest, the residual, is
// compiled against the concatenated schema, and every join tests it on
// vectors of the columns it reads (resCols), gathered at its candidate
// pairs (joinPairs.keep).
type joinSpec struct {
	lKeys, rKeys []int          // equi-join column positions (parallel slices)
	lCols, rCols []schema.ColID // the same keys by column (lplan.Join.EquiKeys)
	build        *expr.Filter   // hash join: the build-only conjuncts; nil = none
	residual     *expr.Filter   // the residual over the concat schema; nil = none
	resCols      []int          // the concat columns the residual reads
	proj         []int          // output projection over concat schema; nil = all
	lWidth       int            // arity of the left input's rows
	rWidth       int            // arity of the right input's rows (for outer-join padding)
	// none is a block of no rows, as wide as either input, for an outer
	// join: the side a pad lacks is read from it.
	none types.Block
}

// joinSpecOf compiles j over inputs l and r, whose conjuncts EquiKeys has
// split into keys and residual; hash: j runs as a hash join.
func joinSpecOf(j *lplan.Join, l, r input, lCols, rCols []schema.ColID, residualPreds []expr.Expr, hash bool) (*joinSpec, error) {
	ls, rs := l.sch, r.sch
	concat := ls.Concat(rs)
	lKeys, err := colIndexes(ls, lCols)
	if err != nil {
		return nil, err
	}
	rKeys, err := colIndexes(rs, rCols)
	if err != nil {
		return nil, err
	}
	spec := &joinSpec{lKeys: lKeys, rKeys: rKeys, lCols: lCols, rCols: rCols,
		lWidth: len(ls), rWidth: len(rs)}
	if j.Type.Outer() {
		spec.none.Cols = make([]types.Vector, max(len(ls), len(rs)))
	}
	if hash {
		var build []expr.Expr
		build, residualPreds = buildOnly(residualPreds, ls, rs)
		if build != nil {
			if spec.build, err = expr.CompileFilter(build, rs); err != nil {
				return nil, err
			}
		}
	}
	if len(residualPreds) > 0 {
		if spec.residual, err = expr.CompileFilter(residualPreds, concat); err != nil {
			return nil, err
		}
		for _, p := range residualPreds {
			for _, c := range expr.Columns(p) {
				if i, _ := concat.IndexOf(c); !slices.Contains(spec.resCols, i) { // resolved: it compiled
					spec.resCols = append(spec.resCols, i)
				}
			}
		}
	}
	if j.Proj != nil {
		spec.proj, err = colIndexes(concat, j.Proj)
	}
	return spec, err
}

// buildOnly splits preds into the conjuncts that read no column of the
// left input's schema ls, and only columns of the right's rs, and the rest.
func buildOnly(preds []expr.Expr, ls, rs schema.Schema) (build, rest []expr.Expr) {
	for _, p := range preds {
		only := true
		for _, c := range expr.Columns(p) {
			if ls.Contains(c) || !rs.Contains(c) {
				only = false
				break
			}
		}
		if only {
			build = append(build, p)
		} else {
			rest = append(rest, p)
		}
	}
	return build, rest
}

func compileJoin(j *lplan.Join) (*op, error) {
	lCols, rCols, residualPreds := j.EquiKeys()
	method := j.Method
	switch {
	case (method == lplan.JoinHash || method == lplan.JoinUnset) && len(lCols) == 0:
		method = lplan.JoinBlockNL // no equi-join conjunct: degrade to block nested loops
	case method == lplan.JoinUnset:
		method = lplan.JoinHash
	}
	l, err := compileInput(j.L)
	if err != nil {
		return nil, err
	}
	r, err := compileInput(j.R)
	if err != nil {
		return nil, err
	}
	spec, err := joinSpecOf(j, l, r, lCols, rCols, residualPreds, method == lplan.JoinHash)
	if err != nil {
		return nil, err
	}
	switch method {
	case lplan.JoinHash:
		return &op{newIter: func(e *Executor) BatchIterator {
			return &hashJoinIter{joinPairs: joinPairs{joinSpec: spec, params: e.params}, exec: e,
				target: e.batchSize, joinType: j.Type, probeSrc: e.build(l.op), buildOp: r.op}
		}}, nil
	case lplan.JoinBlockNL:
		_, innerIsScan := j.R.(*lplan.Scan)
		return &op{newIter: func(e *Executor) BatchIterator {
			it := &blockNLIter{joinPairs: joinPairs{joinSpec: spec, params: e.params}, exec: e,
				target: e.batchSize, joinType: j.Type, outer: e.build(l.op)}
			if innerIsScan {
				it.inner = func() BatchIterator { return e.build(r.op) }
			} else {
				it.matSrc = e.build(r.op)
			}
			return it
		}}, nil
	case lplan.JoinMerge:
		// Validate has refused an outer merge join.
		if len(spec.lKeys) == 0 {
			return nil, fmt.Errorf("exec: merge join requires an equi-join predicate")
		}
		lIn, rIn := sortedInput(l.op, spec.lCols, sortKeys{cols: spec.lKeys}), sortedInput(r.op, spec.rCols, sortKeys{cols: spec.rKeys})
		return &op{newIter: func(e *Executor) BatchIterator {
			return &mergeJoinIter{joinPairs: joinPairs{joinSpec: spec, params: e.params}, target: e.batchSize,
				l: runReader{in: lIn(e), cols: spec.lKeys}, r: runReader{in: rIn(e), cols: spec.rKeys}}
		}}, nil
	default:
		return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
	}
}

// width returns the number of output columns.
func (s *joinSpec) width() int {
	if s.proj == nil {
		return s.lWidth + s.rWidth
	}
	return len(s.proj)
}

// column returns output column i's position in the concatenated inputs.
func (s *joinSpec) column(i int) int {
	if s.proj == nil {
		return i
	}
	return s.proj[i]
}

// joinPairs is the back end the three joins share, one run's: a join's
// front end puts candidate pairs — a left and a right row whose keys
// match, as positions in the two sides' blocks — and pads in li and ri,
// -1 standing for the side a pad lacks; keep tests the residual once over
// all the candidates, on vectors of the columns it reads gathered at the
// pairs, and drops the candidates it rejects and the pads of left rows that
// matched; flush gathers the output rows of the pairs left, column by
// column, only the projected columns, from the two blocks.
//
// A left pad follows every candidate of its row, and keep reads and
// clears the row's flag there, so lMatched is clear again once every row
// of a block or a probe batch has had its pad.
type joinPairs struct {
	*joinSpec
	params   []types.Value
	li, ri   []int32 // the pairs: positions in the left and the right block
	lMatched []bool  // outer: per left position, whether a candidate held since its pad
	rMatched []bool  // FULL: per right position, whether a candidate held
	res      *Batch  // pooled: the residual's columns at the pairs, and its selection
	buf      *Batch  // pooled: its sel and gids keep li and ri between runs
}

func (p *joinPairs) open() {
	p.buf = getBatch()
	p.li, p.ri = p.buf.sel[:0], p.buf.gids[:0]
	if p.residual != nil {
		p.res = getBatch()
		p.res.startOwn(p.lWidth + p.rWidth)
	}
}

func (p *joinPairs) close() {
	if p.buf != nil {
		p.buf.sel, p.buf.gids = p.li[:0], p.ri[:0] // keep what they grew to
	}
	putBatch(p.buf)
	putBatch(p.res)
	p.buf, p.res, p.li, p.ri = nil, nil, nil, nil
}

// keep narrows the pairs to the output rows: the candidates the residual
// holds on, and the pads of left rows none of whose candidates held. A
// candidate that holds flags its rows in lMatched and rMatched. The pairs
// hold no right pad: those go out as they are.
func (p *joinPairs) keep(l, r *types.Block) error {
	if len(p.li) == 0 || p.residual == nil && p.lMatched == nil && p.rMatched == nil {
		return nil
	}
	var held []int32 // the candidates the residual holds on, by pair index
	if p.residual != nil {
		sel := p.res.sel[:0]
		for i, k := range p.ri {
			if k >= 0 {
				sel = append(sel, int32(i))
			}
		}
		p.res.sel = sel
		if len(sel) > 0 { // a run of pads only reads the match flags
			for _, c := range p.resCols {
				v := &p.res.Cols[c]
				v.Reset()
				if c < p.lWidth {
					v.AppendSel(&l.Cols[c], p.li)
				} else {
					v.AppendSel(&r.Cols[c-p.lWidth], p.ri)
				}
			}
			var err error
			if held, err = p.residual.Select(p.res.Cols, sel, p.params); err != nil {
				return err
			}
		}
	}
	n := 0
	for i, k := range p.li {
		r := p.ri[i]
		switch {
		case r < 0: // a pad: the row's candidates, if any, have all been tested
			if p.lMatched[k] {
				p.lMatched[k] = false
				continue
			}
		case p.residual != nil && (len(held) == 0 || held[0] != int32(i)):
			continue
		default:
			if p.residual != nil {
				held = held[1:]
			}
			if p.lMatched != nil {
				p.lMatched[k] = true
			}
			if p.rMatched != nil {
				p.rMatched[r] = true
			}
		}
		p.li[n], p.ri[n] = k, r
		n++
	}
	p.li, p.ri = p.li[:n], p.ri[:n]
	return nil
}

// flush appends the output rows of the pairs to dst, gathered from the
// left block l and the right block r, and forgets the pairs.
func (p *joinPairs) flush(dst *Batch, l, r *types.Block) {
	if len(p.li) == 0 {
		return
	}
	if dst.N == 0 {
		dst.startOwn(p.width())
	}
	for i := range dst.Cols {
		if j := p.column(i); j < p.lWidth {
			dst.Cols[i].AppendSel(&l.Cols[j], p.li)
		} else {
			dst.Cols[i].AppendSel(&r.Cols[j-p.lWidth], p.ri)
		}
	}
	dst.N += len(p.li)
	p.li, p.ri = p.li[:0], p.ri[:0]
}

// falses returns s with at least n flags, those it gains false.
func falses(s []bool, n int) []bool {
	if len(s) < n {
		s = append(s, make([]bool, n-len(s))...)
	}
	return s
}

// hashJoinIter builds a key table on the right input and probes it with the
// left a batch at a time, the front end of joinPairs. A probe batch is
// joined in loops, none of them per-row state: resolve finds every probe
// row's chain of build rows with one batch lookup (types.KeyTable.Lookup)
// and one pass from entries to chain heads; pair walks
// the chains into candidate (probe position, build row) pairs, and for an
// outer join a pad after each probe row's candidates, until they could
// fill the output batch; keep and flush make them output rows. A call that
// fills the batch resumes mid-chain on the next. If the build side exceeds
// the budget it falls back to Grace partitioning, writing both inputs to
// spill partitions (partitioner) and joining them pairwise with the same
// code.
//
// Outer joins: the probe (left) side is the preserved side of a LEFT join —
// a probe row whose ON condition matches no build row is emitted once,
// right-padded with NULLs, where its matches would have been. FULL joins
// additionally flag every matched build row and emit the unmatched
// remainder left-padded after the probe side drains (per partition on the
// grace path, which is sound because Grace partitions by key, so a build
// row can only match probe rows of its own partition). Build rows with NULL
// keys never match (NULL = x is UNKNOWN), nor do build rows that fail the
// residual's build-only conjuncts; both surface only through the FULL-outer
// drain.
type hashJoinIter struct {
	joinPairs
	exec     *Executor
	target   int
	joinType lplan.JoinType
	probeSrc BatchIterator // the built left child
	buildOp  *op           // the right child, built at Open

	// Current build table (whole input in memory, or one grace partition).
	// Build rows with one key are chained through next in ascending order
	// from the key's head, so matches come out in build order. A FULL
	// join's build rows already matched are flagged in rMatched.
	build *Batch          // pooled: the build rows, in vectors of its own
	tab   *types.KeyTable // pooled: build key -> entry
	head  []int32         // per entry: first build row with the key
	next  []int32         // per build row: the next with the same key, -1 = last
	kr    types.KeyRows   // the keys of the probe batch (or of the build rows, while loading)

	probe     BatchIterator // probeSrc, or the current partition's probe rows
	pb        *Batch        // probe batch being joined
	psel      []int32       // its rows' positions
	chains    []int32       // per row of pb: the next build row to pair it with, -1 = none left
	pos       int           // the first row of pb not yet paired to the end of its chain
	probeDone bool          // probe is exhausted for the current build table
	drainPos  int           // FULL outer, after the probe: next build row to pad if unmatched

	// grace path (rParts != nil)
	lParts, rParts []*spill
	part           int
	probeRows      *Batch // pooled: the current partition's probe rows, in vectors of its own
}

// loadBuild indexes the build rows. NULL-keyed rows, and rows on which
// the build-only conjuncts are not TRUE, stay in the store (the FULL-outer
// drain must see them) but get no entry.
func (it *hashJoinIter) loadBuild() error {
	n := it.build.N
	it.rMatched, it.drainPos = nil, 0
	if it.joinType == lplan.JoinFull {
		it.rMatched = make([]bool, n)
	}
	keys := it.rKeys
	it.tab.Init(len(keys), n)
	if len(keys) == 1 {
		it.tab.Reserve(&it.build.Cols[keys[0]])
	}
	// The chains live in the build batch's group-id scratch, which is
	// recycled with it.
	if cap(it.build.gids) < 2*n {
		it.build.gids = make([]int32, 2*n)
	}
	it.next, it.head = it.build.gids[:n], it.build.gids[n:n:2*n]
	// Rows go in last first, each pushed onto the front of its key's chain,
	// which leaves every chain ascending without tracking chain tails.
	// Without build-only conjuncts every row is indexed.
	b := it.build
	kr := it.kr.Of(b.Cols, keys, b.selection())
	if it.joinSpec.build != nil {
		sel, err := it.joinSpec.build.Select(b.Cols, kr.Sel, it.params)
		if err != nil {
			return err
		}
		kr.Sel = sel
	}
	it.tab.Hash(kr)
	mayNull := kr.MayHoldNull()
	for i := len(kr.Sel) - 1; i >= 0; i-- {
		if mayNull && kr.NullKey(i) {
			continue
		}
		e, added := it.tab.Add(kr, i)
		if added {
			it.head = append(it.head, -1)
		}
		r := kr.Sel[i]
		it.next[r], it.head[e] = it.head[e], r
	}
	return nil
}

// startBuild empties the build store for the next build input.
func (it *hashJoinIter) startBuild() { it.build.startOwn(it.rWidth) }

// addBuild copies b's rows into the build store and returns their
// accounted width.
func (it *hashJoinIter) addBuild(b *Batch) int {
	sel := b.selection()
	it.build.appendSel(&b.Block, sel)
	return b.DiskWidth(sel)
}

func (it *hashJoinIter) Open() error {
	build := it.exec.build(it.buildOp)
	it.pb, it.build, it.tab = getBatch(), getStore(), types.GetKeyTable()
	it.open()
	// Materialize the build side, counting bytes.
	bytes := 0
	it.startBuild()
	if err := drainBatches(build, func(b *Batch) error {
		bytes += it.addBuild(b)
		return nil
	}); err != nil {
		return err
	}

	if bytes <= it.exec.budgetBytes {
		if err := it.loadBuild(); err != nil {
			return err
		}
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
	var part partitioner
	if err := part.add(it.rParts, &it.build.Block, it.rKeys, it.build.selection()); err != nil {
		return err
	}
	it.startBuild()
	if err := drainBatches(it.probeSrc, func(b *Batch) error {
		return part.add(it.lParts, &b.Block, it.lKeys, b.selection())
	}); err != nil {
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
	it.startBuild()
	if err := drainBatches(it.partition(it.rParts), func(b *Batch) error {
		it.addBuild(b)
		return nil
	}); err != nil {
		return false, err
	}
	if err := it.loadBuild(); err != nil {
		return false, err
	}
	// The partition's probe rows are read whole before the join starts, so
	// its page reads do not interleave with the operators above.
	if it.probeRows == nil {
		it.probeRows = getStore()
	}
	it.probeRows.startOwn(it.lWidth)
	if err := drainBatches(it.partition(it.lParts), func(b *Batch) error {
		it.probeRows.appendSel(&b.Block, b.selection())
		return nil
	}); err != nil {
		return false, err
	}
	it.probe = &blockIter{blk: it.probeRows.Block, target: it.target}
	it.probeDone = false
	return true, nil
}

// partition reads the current partition of parts back.
func (it *hashJoinIter) partition(parts []*spill) *scanIter {
	return spillScan(parts[it.part], it.target)
}

// resolve reads the next probe batch and finds each of its rows' chain:
// the key table looks the whole batch up, and each entry found gives its
// chain's head.
func (it *hashJoinIter) resolve() error {
	if err := it.probe.NextBatch(it.pb); err != nil {
		return err
	}
	it.pos, it.chains = 0, it.chains[:0]
	if it.probeDone = it.pb.Len() == 0; it.probeDone {
		return nil
	}
	kr := it.kr.Of(it.pb.Cols, it.lKeys, it.pb.selection())
	it.psel, it.chains = kr.Sel, it.pb.groupIDs()
	if it.joinType.Outer() {
		it.lMatched = falses(it.lMatched, it.pb.N)
	}
	// A NULL key finds no entry: the build rows with one have none.
	it.tab.Hash(kr)
	it.tab.Lookup(kr, it.chains)
	for i, e := range it.chains {
		if e >= 0 {
			it.chains[i] = it.head[e]
		}
	}
	return nil
}

// pair walks the chains of the probe rows from pos on into candidate
// pairs, each probe row's in build order and, for an outer join, followed
// by a pad, until the pairs could make room output rows: a candidate may
// make one, and a pad one only for a row without candidates (a row's pad
// replaces its candidates when none holds). A chain cut off there resumes
// on the next call.
func (it *hashJoinIter) pair(room int) {
	outer := it.joinType.Outer()
	for n := 0; it.pos < len(it.chains) && n < room; it.pos++ {
		k, r := it.psel[it.pos], it.chains[it.pos]
		if r < 0 && outer {
			n++
		}
		for ; r >= 0 && n < room; r = it.next[r] {
			it.li, it.ri = append(it.li, k), append(it.ri, r)
			n++
		}
		if r >= 0 {
			it.chains[it.pos] = r
			return
		}
		if outer {
			it.li, it.ri = append(it.li, k), append(it.ri, -1)
		}
	}
}

func (it *hashJoinIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for room := it.target; room > 0; room = it.target - dst.N {
		l := &it.pb.Block
		switch {
		case it.pos < len(it.chains):
			it.pair(room)
			if err := it.keep(l, &it.build.Block); err != nil {
				return err
			}
		case !it.probeDone:
			// The pairs went out before the next probe batch replaces the
			// vectors they index.
			if err := it.resolve(); err != nil {
				return err
			}
		case it.drainPos < len(it.rMatched):
			// FULL outer: emit the build rows no probe row matched.
			l = &it.none
			for ; it.drainPos < len(it.rMatched) && len(it.li) < room; it.drainPos++ {
				if !it.rMatched[it.drainPos] {
					it.li, it.ri = append(it.li, -1), append(it.ri, int32(it.drainPos))
				}
			}
		case it.rParts == nil:
			return nil
		default:
			// This build table is finished: the grace join moves to its next
			// partition pair.
			if ok, err := it.nextPartition(); err != nil || !ok {
				return err
			}
		}
		it.flush(dst, l, &it.build.Block)
	}
	return nil
}

func (it *hashJoinIter) Close() error {
	// Unconditional cascade: Close is idempotent at every lifecycle point
	// (before Open, after a failed Open, mid-join). On the grace path the
	// probe source was already closed by drainBatches; closing again is
	// harmless.
	it.probeSrc.Close()
	it.close()
	putBatch(it.pb)
	putStore(it.build)
	putStore(it.probeRows)
	types.PutKeyTable(it.tab)
	it.pb, it.build, it.probeRows, it.tab = nil, nil, nil, nil
	it.psel, it.chains = nil, nil
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
// once per block, the front end of joinPairs. A base-table inner is
// rescanned directly (the buffer pool charges the repeated reads); any
// other inner is materialized to a spill file first. A block is a store
// batch cut row-exact from the outer's batches, so the batch size never
// moves a block boundary. Each inner row of a pass is paired with the
// block's rows its keys match, in block order, so output is inner-major
// within a block; a call that fills the batch resumes mid-row on the next.
// The key test is a kernel over the block's key vectors (types.EqualAt): a
// row's matches cost one loop of one kind's compares per key.
//
// Outer joins: the block (left) side is the preserved side of a LEFT join —
// after each block's inner pass completes, every block row gets its pad,
// which goes out only when no candidate of the row held (lMatched). FULL
// joins additionally flag the inner rows a candidate held on, by their
// ordinal in the pass (inner rescans are deterministic, heap order for a
// base table and spill order otherwise, so ordinal i is the same row in
// every pass) and, after the last block, make one more pass that emits the
// never-matched inner rows left-padded.
type blockNLIter struct {
	joinPairs
	exec     *Executor
	target   int
	joinType lplan.JoinType
	outer    BatchIterator
	inner    func() BatchIterator // fresh inner scan per pass
	// matSrc is a non-base-table inner, materialized to a spill at Open
	// (not at build time: build allocates no resources, so a tree that is
	// built but never opened leaks no files).
	matSrc  BatchIterator
	spilled *spill

	ob     *Batch  // the outer batch blocks are cut from
	osel   []int32 // its selection
	opos   int     // its next row, by selection index
	oEOF   bool
	block  *Batch // pooled: the block's rows, in vectors of its own
	padPos int    // LEFT/FULL, after a pass: the next block row to pad

	in           BatchIterator // the inner pass in progress; nil between passes
	ib           *Batch        // the inner batch being joined
	isel         []int32       // its selection
	ipos         int           // its row in flight, by selection index
	found        bool          // whether match holds that row's matches
	match        []int32       // the block rows whose keys match it: all, or matchBuf
	matchBuf     []int32       // the storage keys narrow all into
	mpos         int           // the next of them to pair with it
	all          []int32       // every block row: 0, 1, ..., block.N-1
	ord          int           // the ordinal of ib's first row within the pass
	innerMatched []bool        // FULL: per inner ordinal, whether a candidate held, OR'd across blocks
	final        bool          // FULL: the pass after the last block
	done         bool
}

func (it *blockNLIter) Open() error {
	if it.matSrc != nil && it.spilled == nil {
		// Materialize the inner once, then scan the spill per block. The
		// spill is assigned before writing so Close drops it on any error.
		sp := newSpill(it.exec.pg, "bnl-inner")
		it.spilled = sp
		if err := drainBatches(it.matSrc, func(b *Batch) error {
			return sp.addRows(&b.Block, b.selection())
		}); err != nil {
			return err
		}
		if err := sp.finish(); err != nil {
			return err
		}
		it.inner = func() BatchIterator { return spillScan(sp, it.exec.batchSize) }
	}
	it.ob, it.ib, it.block = getBatch(), getBatch(), getStore()
	it.open()
	if err := it.outer.Open(); err != nil {
		return err
	}
	return it.nextBlock()
}

// nextBlock cuts the next block from the outer and starts an inner pass over
// it. The block ends at the row whose width reaches the budget. Once the
// outer is exhausted, a FULL join starts its final pass and any other join
// is done.
func (it *blockNLIter) nextBlock() error {
	it.block.startOwn(it.lWidth)
	budget := max(it.exec.budgetBytes-2*4096, 4096) // leave pages for the inner stream
	for bytes := 0; bytes < budget; {
		if it.opos == len(it.osel) {
			if it.oEOF {
				break
			}
			if err := it.outer.NextBatch(it.ob); err != nil {
				return err
			}
			it.osel, it.opos, it.oEOF = it.ob.selection(), 0, it.ob.Len() == 0
			continue
		}
		n, w := cut(&it.ob.Block, it.osel[it.opos:], budget-1-bytes)
		it.block.appendSel(&it.ob.Block, it.osel[it.opos:it.opos+n])
		it.opos, bytes = it.opos+n, bytes+w
	}
	if it.block.N == 0 {
		if it.final || it.joinType != lplan.JoinFull {
			it.done = true
			return nil
		}
		it.final = true
	}
	if it.joinType.Outer() {
		it.lMatched = falses(it.lMatched, it.block.N)
	}
	it.all = it.block.selectAll(it.block.N)
	it.padPos, it.ord, it.isel, it.ipos = 0, 0, nil, 0
	it.in = it.inner()
	return it.in.Open()
}

// pair pairs the inner rows from ipos on, each with the block rows whose
// keys match its own, in block order, until there are room candidates. A
// row's matches are found once, narrowing the block's rows key by key
// (types.EqualAt: a NULL key matches no row); a row cut off resumes at
// mpos of them on the next call.
func (it *blockNLIter) pair(room int) {
	blk, ib := &it.block.Block, &it.ib.Block
	for ; it.ipos < len(it.isel); it.ipos, it.found = it.ipos+1, false {
		r := int(it.isel[it.ipos])
		if !it.found {
			it.match, it.mpos, it.found = it.all, 0, true
			for x, c := range it.lKeys {
				it.matchBuf = types.EqualAt(&blk.Cols[c], it.match, &ib.Cols[it.rKeys[x]], r, it.matchBuf[:0])
				it.match = it.matchBuf
			}
		}
		for ; it.mpos < len(it.match); it.mpos++ {
			if len(it.li) == room {
				return
			}
			it.li, it.ri = append(it.li, it.match[it.mpos]), append(it.ri, int32(r))
		}
	}
}

// nextInner moves the pass to its next inner batch; an empty one ends the
// pass. A FULL join first folds the flags of the batch it leaves into
// innerMatched.
func (it *blockNLIter) nextInner() error {
	if it.rMatched != nil {
		for i, k := range it.isel {
			if it.rMatched[k] {
				it.innerMatched[it.ord+i], it.rMatched[k] = true, false
			}
		}
	}
	it.ord += len(it.isel)
	if err := it.in.NextBatch(it.ib); err != nil {
		return err
	}
	it.isel, it.ipos = it.ib.selection(), 0
	if len(it.isel) == 0 {
		it.in.Close()
		it.in = nil
	} else if it.joinType == lplan.JoinFull {
		it.innerMatched = falses(it.innerMatched, it.ord+len(it.isel))
		it.rMatched = falses(it.rMatched, it.ib.N)
	}
	return nil
}

func (it *blockNLIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for room := it.target; room > 0 && !it.done; room = it.target - dst.N {
		l, r := &it.block.Block, &it.ib.Block
		switch {
		case it.ipos < len(it.isel) && it.final:
			l = &it.none
			for ; it.ipos < len(it.isel) && len(it.li) < room; it.ipos++ {
				if !it.innerMatched[it.ord+it.ipos] {
					it.li, it.ri = append(it.li, -1), append(it.ri, it.isel[it.ipos])
				}
			}
		case it.ipos < len(it.isel):
			it.pair(room)
			if err := it.keep(l, r); err != nil {
				return err
			}
		case it.in != nil:
			if err := it.nextInner(); err != nil {
				return err
			}
		case it.lMatched != nil && it.padPos < it.block.N:
			r = &it.none
			for ; it.padPos < it.block.N && len(it.li) < room; it.padPos++ {
				it.li, it.ri = append(it.li, int32(it.padPos)), append(it.ri, -1)
			}
			if err := it.keep(l, r); err != nil {
				return err
			}
		default:
			if err := it.nextBlock(); err != nil {
				return err
			}
		}
		it.flush(dst, l, r)
	}
	return nil
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
	it.close()
	putBatch(it.ob)
	putBatch(it.ib)
	putStore(it.block)
	it.ob, it.ib, it.block, it.osel, it.isel, it.all, it.match = nil, nil, nil, nil, nil, nil, nil
	it.spilled.drop()
	it.spilled = nil
	return nil
}

// cut returns how many leading rows of sel, positions in blk, fit in room
// bytes of accounted width with the row that overflows it, and their
// width: all of sel, and theirs, when they fit.
func cut(blk *types.Block, sel []int32, room int) (n, w int) {
	if w = blk.DiskWidth(sel); w <= room {
		return len(sel), w
	}
	for w = 0; w <= room; n++ {
		w += blk.DiskWidth(sel[n : n+1])
	}
	return n, w
}

// compareKeys orders row i of a against row j of b, key by key: the
// columns at aKeys of a against those at bKeys of b, by types.CompareAt.
func compareKeys(a *types.Block, aKeys []int, i int, b *types.Block, bKeys []int, j int) int {
	for x, c := range aKeys {
		if d := types.CompareAt(&a.Cols[c], i, &b.Cols[bKeys[x]], j); d != 0 {
			return d
		}
	}
	return 0
}

// nullKey reports whether row i of b holds a NULL at one of the keys.
func nullKey(b *types.Block, keys []int, i int) bool {
	for _, c := range keys {
		if b.Cols[c].IsNull(i) {
			return true
		}
	}
	return false
}

// mergeJoinIter joins two inputs sorted on their equi-join keys run by run,
// the front end of joinPairs: a left run and the right run with equal keys,
// each held in a store batch (runReader), pair as their cross product,
// left-major, and a call that fills the batch resumes mid-product on the
// next. A NULL key never matches (NULL = x is UNKNOWN): a left run with one
// is skipped without consuming the right side, and right runs with smaller
// keys, NULL keys included (NULLs sort first), are passed over.
type mergeJoinIter struct {
	joinPairs
	target     int
	l, r       runReader // l.run × r.run is the product in flight
	lpos, rpos int       // its next pair
}

func (it *mergeJoinIter) Open() error {
	it.open()
	if err := it.l.Open(); err != nil {
		return err
	}
	if err := it.r.Open(); err != nil {
		return err
	}
	_, err := it.r.next()
	return err
}

// pair crosses the left run with the right run from (lpos, rpos) on,
// left-major, until there are room pairs.
func (it *mergeJoinIter) pair(room int) {
	for n := 0; it.lpos < it.l.run.N; it.lpos, it.rpos = it.lpos+1, 0 {
		for ; it.rpos < it.r.run.N; it.rpos++ {
			if n == room {
				return
			}
			it.li, it.ri = append(it.li, int32(it.lpos)), append(it.ri, int32(it.rpos))
			n++
		}
	}
}

func (it *mergeJoinIter) NextBatch(dst *Batch) error {
	dst.Reset()
	l, r := &it.l.run.Block, &it.r.run.Block
	for room := it.target; room > 0; room = it.target - dst.N {
		if it.lpos < l.N {
			it.pair(room)
			if err := it.keep(l, r); err != nil {
				return err
			}
			it.flush(dst, l, r)
			continue
		}
		// The product is done: read the next left run and find its match.
		if ok, err := it.l.next(); err != nil || !ok {
			return err
		}
		it.lpos, it.rpos = 0, 0
		if nullKey(l, it.lKeys, 0) {
			it.lpos = l.N
			continue
		}
		for r.N > 0 && compareKeys(l, it.lKeys, 0, r, it.rKeys, 0) > 0 {
			if _, err := it.r.next(); err != nil {
				return err
			}
		}
		if r.N == 0 || compareKeys(l, it.lKeys, 0, r, it.rKeys, 0) != 0 {
			it.lpos = l.N // no right run matches: the product is empty
		}
	}
	return nil
}

func (it *mergeJoinIter) Close() error {
	// Always cascade: if the left sort opened and spilled runs but the right
	// sort's Open failed, the left's runs must still be dropped.
	it.l.Close()
	it.r.Close()
	it.close()
	return nil
}
