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
// compiled against the concatenated schema. The hash join tests it on
// vectors of the columns it reads (resCols), the other joins on the
// concatenated row.
type joinSpec struct {
	lKeys, rKeys []int          // equi-join column positions (parallel slices)
	lCols, rCols []schema.ColID // the same keys by column (lplan.Join.EquiKeys)
	build        *expr.Filter   // hash join: the build-only conjuncts; nil = none
	residual     *expr.Filter   // the residual over the concat schema; nil = none
	resCols      []int          // the concat columns the residual reads
	proj         []int          // output projection over concat schema; nil = all
	lWidth       int            // arity of the left input's rows
	rWidth       int            // arity of the right input's rows (for outer-join padding)
}

// joinCommon is one run's view of a joinSpec: the run's parameters and its
// scratch rows.
type joinCommon struct {
	*joinSpec
	params  []types.Value
	scratch types.Row // reusable concat buffer for residual evaluation
	nulls   types.Row // all-NULL row standing in for the missing side of a padded row
	arena   rowArena  // backs the rows the row-reading joins gather
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
	newJC := func(e *Executor) *joinCommon {
		return &joinCommon{joinSpec: spec, params: e.params, arena: rowArena{rec: &e.arenas}}
	}
	switch method {
	case lplan.JoinHash:
		return &op{newIter: func(e *Executor) BatchIterator {
			return &hashJoinIter{exec: e, jc: newJC(e), target: e.batchSize, joinType: j.Type,
				probeSrc: e.build(l.op), buildOp: r.op}
		}}, nil
	case lplan.JoinBlockNL:
		_, innerIsScan := j.R.(*lplan.Scan)
		return &op{newIter: func(e *Executor) BatchIterator {
			it := &blockNLIter{exec: e, jc: newJC(e), target: e.batchSize, joinType: j.Type, outer: e.build(l.op)}
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
			jc := newJC(e)
			return &mergeJoinIter{jc: jc, target: e.batchSize,
				l: runReader{in: lIn(e), cols: spec.lKeys, arena: &jc.arena}, r: runReader{in: rIn(e), cols: spec.rKeys, arena: &jc.arena}}
		}}, nil
	default:
		return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
	}
}

// holds reports whether the residual predicates hold on the row pair
// (l, r), read as one row from a reusable scratch buffer.
func (jc *joinCommon) holds(l, r types.Row) (bool, error) {
	if jc.residual == nil {
		return true, nil
	}
	jc.scratch = append(append(jc.scratch[:0], l...), r...)
	return jc.residual.Holds(jc.scratch, jc.params)
}

// appendPair appends the output row of the pair (l, r) to dst's own
// vectors: the projection's columns of their concatenation, taken from
// whichever side holds each. A nil side is NULL-padded: an outer join's
// padded rows bypass the residual — the ON condition already failed, that
// is why the row is padded — but the projection still applies.
func (jc *joinCommon) appendPair(dst *Batch, l, r types.Row) {
	if dst.N == 0 {
		dst.startOwn(jc.width())
	}
	if jc.nulls == nil {
		jc.nulls = make(types.Row, max(jc.lWidth, jc.rWidth)) // the zero Value is NULL
	}
	if l == nil {
		l = jc.nulls[:jc.lWidth]
	}
	if r == nil {
		r = jc.nulls[:jc.rWidth]
	}
	for i := range dst.Cols {
		if j := jc.column(i); j < jc.lWidth {
			dst.Cols[i].AppendRef(l[j])
		} else {
			dst.Cols[i].AppendRef(r[j-jc.lWidth])
		}
	}
	dst.N++
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

// hashJoinIter builds a key table on the right input and probes it with the
// left a batch at a time. A probe batch is joined in three loops, none of
// them per-row state: resolve finds every probe row's chain of build rows
// in one pass over the batch's keys; pair walks the chains into candidate
// (probe position, build row) pairs, and for an outer join a pad after
// each probe row's candidates, until they could fill the output batch;
// keep tests the residual once over all the candidates, on vectors
// gathered from only the columns it reads, and drops the candidates it
// rejects and the pads of probe rows that matched. The output rows are
// then gathered from both sides' vectors, only the projected columns, by
// the pairs that remain. A call that fills the batch resumes mid-chain on
// the next. If the build side exceeds the budget it falls back to Grace
// partitioning, writing both inputs to spill partitions and joining them
// pairwise with the same code.
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
	exec     *Executor
	jc       *joinCommon
	target   int
	joinType lplan.JoinType
	probeSrc BatchIterator // the built left child
	buildOp  *op           // the right child, built at Open

	// Current build table (whole input in memory, or one grace partition).
	// Build rows with one key are chained through next in ascending order
	// from the key's head, so matches come out in build order.
	build        *Batch    // pooled: the build rows, in vectors of its own
	buildMatched []bool    // FULL outer only: build rows already matched
	tab          *keyTable // pooled: build key -> entry
	head         []int32   // per entry: first build row with the key
	next         []int32   // per build row: the next with the same key, -1 = last
	kr           keyRows   // the keys of the probe batch (or of the build rows, while loading)

	probe     BatchIterator // probeSrc, or the current partition's probe rows
	pb        *Batch        // probe batch being joined
	psel      []int32       // its rows' positions
	chains    []int32       // per row of pb: the next build row to pair it with, -1 = none left
	pos       int           // the first row of pb not yet paired to the end of its chain
	matched   bool          // outer: the row of the pad to come has matched
	probeDone bool          // probe is exhausted for the current build table
	drainPos  int           // FULL outer, after the probe: next build row to pad if unmatched
	pairs     *Batch        // pooled: its sel and gids hold li and ri
	li, ri    []int32       // the output's (probe position, build row) pairs; -1 pads
	res       *Batch        // pooled: the residual's columns at the pairs, and its selection

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
	it.buildMatched, it.drainPos = nil, 0
	if it.joinType == lplan.JoinFull {
		it.buildMatched = make([]bool, n)
	}
	keys := it.jc.rKeys
	it.tab.init(len(keys), n)
	if len(keys) == 1 {
		if lo, hi, ok := intRange(&it.build.Cols[keys[0]]); ok {
			it.tab.reserve(lo, hi)
		}
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
	kr := it.kr.of(b, keys)
	if it.jc.build != nil {
		sel, err := it.jc.build.Select(b.Cols, kr.sel, it.jc.params)
		if err != nil {
			return err
		}
		kr.sel = sel
	}
	it.tab.hash(kr)
	mayNull := kr.mayHoldNull()
	for i := len(kr.sel) - 1; i >= 0; i-- {
		if mayNull && kr.nullKey(i) {
			continue
		}
		e := it.tab.lookup(kr, i)
		if e < 0 {
			e = it.tab.insert(kr, i)
			it.head = append(it.head, -1)
		}
		r := kr.sel[i]
		it.next[r], it.head[e] = it.head[e], r
	}
	return nil
}

// intRange returns the least and the greatest INT of v, which holds INTs
// and NULLs only, or ok=false.
func intRange(v *types.Vector) (lo, hi int64, ok bool) {
	if v.K != types.KindInt {
		return 0, 0, false
	}
	for k, x := range v.Ints {
		if v.Nulls != nil && v.IsNull(k) {
			continue
		}
		if !ok || x < lo {
			lo = x
		}
		if !ok || x > hi {
			hi = x
		}
		ok = true
	}
	return lo, hi, ok
}

// startBuild empties the build store for the next build input.
func (it *hashJoinIter) startBuild() { it.build.startOwn(it.jc.rWidth) }

// addBuild copies b's rows into the build store and returns their
// accounted width.
func (it *hashJoinIter) addBuild(b *Batch) int {
	sel := b.selection()
	for j := range it.build.Cols {
		it.build.Cols[j].AppendSel(&b.Cols[j], sel)
	}
	it.build.N += len(sel)
	return b.DiskWidth(sel)
}

func (it *hashJoinIter) Open() error {
	build := it.exec.build(it.buildOp)
	it.pb, it.build, it.pairs, it.res, it.tab = getBatch(), getStore(), getBatch(), getBatch(), getKeyTable()
	it.li, it.ri = it.pairs.sel[:0], it.pairs.gids[:0]
	it.res.startOwn(it.jc.lWidth + it.jc.rWidth)
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
	var buf []byte
	var row types.Row
	partition := func(parts []*spill, keys []int) func(*Batch) error {
		return func(b *Batch) error {
			for i := range b.Len() {
				row = b.gather(i, row)
				buf = row.AppendKey(buf[:0], keys)
				if err := parts[partitionOf(buf)].add(row); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := partition(it.rParts, it.jc.rKeys)(it.build); err != nil {
		return err
	}
	it.startBuild()
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
	it.probeRows.startOwn(it.jc.lWidth)
	if err := drainBatches(it.partition(it.lParts), func(b *Batch) error {
		sel := b.selection()
		for j := range it.probeRows.Cols {
			it.probeRows.Cols[j].AppendSel(&b.Cols[j], sel)
		}
		it.probeRows.N += len(sel)
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
// one lookup per row, dense tables straight from the key column's INTs.
func (it *hashJoinIter) resolve() error {
	if err := it.probe.NextBatch(it.pb); err != nil {
		return err
	}
	it.pos, it.chains = 0, it.chains[:0]
	if it.probeDone = it.pb.Len() == 0; it.probeDone {
		return nil
	}
	kr := it.kr.of(it.pb, it.jc.lKeys)
	it.psel, it.chains = kr.sel, it.pb.groupIDs()
	it.tab.hash(kr)
	if ints, ok := it.tab.denseInts(kr); ok {
		for i, k := range kr.sel {
			it.chains[i] = -1
			if e := it.tab.denseAt(ints[k]); e >= 0 {
				it.chains[i] = it.head[e]
			}
		}
		return nil
	}
	mayNull := kr.mayHoldNull()
	for i := range kr.sel {
		it.chains[i] = -1
		if mayNull && kr.nullKey(i) {
			continue
		}
		if e := it.tab.lookup(kr, i); e >= 0 {
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

// keep narrows the pairs to the output rows: the candidates the residual
// holds on, and the pads of probe rows none of whose candidates held. The
// residual runs once over every candidate, on vectors of the columns it
// reads gathered at the pairs.
func (it *hashJoinIter) keep() error {
	jc, outer := it.jc, it.joinType.Outer()
	if len(it.li) == 0 || jc.residual == nil && !outer {
		return nil
	}
	var held []int32 // the candidates the residual holds on, by pair index
	if jc.residual != nil {
		for _, c := range jc.resCols {
			v := &it.res.Cols[c]
			v.Reset()
			if c < jc.lWidth {
				v.AppendSel(&it.pb.Cols[c], it.li)
			} else {
				v.AppendSel(&it.build.Cols[c-jc.lWidth], it.ri)
			}
		}
		sel := it.res.sel[:0]
		for i, r := range it.ri {
			if r >= 0 {
				sel = append(sel, int32(i))
			}
		}
		it.res.sel = sel
		var err error
		if held, err = jc.residual.Select(it.res.Cols, sel, jc.params); err != nil {
			return err
		}
	}
	n := 0
	for i, r := range it.ri {
		switch {
		case r < 0: // a pad: the row's candidates, if any, have all been tested
			pad := !it.matched
			it.matched = false
			if !pad {
				continue
			}
		case jc.residual != nil && (len(held) == 0 || held[0] != int32(i)):
			continue
		default:
			if jc.residual != nil {
				held = held[1:]
			}
			it.matched = true
			if it.buildMatched != nil {
				it.buildMatched[r] = true
			}
		}
		it.li[n], it.ri[n] = it.li[i], r
		n++
	}
	it.li, it.ri = it.li[:n], it.ri[:n]
	return nil
}

// flush appends the output rows of the pairs to dst, gathered from the
// probe batch's and the build rows' vectors, and forgets the pairs.
func (it *hashJoinIter) flush(dst *Batch) {
	jc := it.jc
	if len(it.li) == 0 {
		return
	}
	if dst.N == 0 {
		dst.startOwn(jc.width())
	}
	for i := range dst.Cols {
		switch j := jc.column(i); {
		case j >= jc.lWidth:
			dst.Cols[i].AppendSel(&it.build.Cols[j-jc.lWidth], it.ri)
		case j < len(it.pb.Cols):
			dst.Cols[i].AppendSel(&it.pb.Cols[j], it.li)
		default: // the FULL-outer drain, after the probe: every pair pads
			dst.Cols[i].AppendSel(&types.Vector{}, it.li)
		}
	}
	dst.N += len(it.li)
	it.li, it.ri = it.li[:0], it.ri[:0]
}

func (it *hashJoinIter) NextBatch(dst *Batch) error {
	dst.Reset()
	for room := it.target; room > 0; room = it.target - dst.N {
		switch {
		case it.pos < len(it.chains):
			it.pair(room)
			if err := it.keep(); err != nil {
				return err
			}
		case !it.probeDone:
			// The pairs went out before the next probe batch replaces the
			// vectors they index.
			if err := it.resolve(); err != nil {
				return err
			}
		case it.drainPos < len(it.buildMatched):
			// FULL outer: emit the build rows no probe row matched.
			for ; it.drainPos < len(it.buildMatched) && len(it.li) < room; it.drainPos++ {
				if !it.buildMatched[it.drainPos] {
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
		it.flush(dst)
	}
	return nil
}

func (it *hashJoinIter) Close() error {
	// Unconditional cascade: Close is idempotent at every lifecycle point
	// (before Open, after a failed Open, mid-join). On the grace path the
	// probe source was already closed by drainBatches; closing again is
	// harmless.
	it.probeSrc.Close()
	if it.pairs != nil {
		it.pairs.sel, it.pairs.gids = it.li[:0], it.ri[:0] // keep what they grew to
	}
	putBatch(it.pb)
	putBatch(it.pairs)
	putBatch(it.res)
	putStore(it.build)
	putStore(it.probeRows)
	putKeyTable(it.tab)
	it.pb, it.build, it.probeRows, it.pairs, it.res, it.tab = nil, nil, nil, nil, nil, nil
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

// blockIter hands out an in-memory block's rows as batches of its vectors,
// up to target rows selected at a time.
type blockIter struct {
	blk    types.Block
	target int
	all    Batch // all.sel: 0, 1, ..., blk.N-1, once the block takes two batches
	pos    int
}

func (it *blockIter) Open() error { it.pos = 0; return nil }

func (it *blockIter) NextBatch(dst *Batch) error {
	dst.Reset()
	n := min(it.blk.N-it.pos, it.target)
	switch {
	case n == 0:
		return nil
	case n == it.blk.N:
		dst.Block = it.blk
	default:
		if len(it.all.sel) != it.blk.N {
			it.all.selectAll(it.blk.N)
		}
		dst.Block, dst.Sel = it.blk, it.all.sel[it.pos:it.pos+n]
	}
	it.pos += n
	return nil
}

func (it *blockIter) Close() error { return nil }

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
	block        []types.Row // gathered from ob, carved from jc.arena
	blockMatched []bool      // LEFT/FULL: per-block-row match flags
	padPos       int         // LEFT/FULL, after a pass: next block row to pad if unmatched

	in           BatchIterator // the inner pass in progress; nil between passes
	ib           *Batch        // the inner batch being joined
	ipos         int           // its row in flight
	irow         types.Row     // that row, gathered
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
		var row types.Row
		if err := drainBatches(it.matSrc, func(b *Batch) error {
			for i := range b.Len() {
				row = b.gather(i, row)
				if err := sp.add(row); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := sp.finish(); err != nil {
			return err
		}
		it.inner = func() BatchIterator { return spillScan(sp, it.exec.batchSize) }
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
		row := it.ob.gather(it.opos, it.jc.arena.carve(len(it.ob.Cols)))
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
			if it.ord >= len(it.innerMatched) || !it.innerMatched[it.ord] {
				it.jc.appendPair(dst, nil, it.ib.gather(it.ipos, it.irow))
			}
			it.ipos, it.ord = it.ipos+1, it.ord+1
		case it.ipos < it.ib.Len():
			it.irow = it.ib.gather(it.ipos, it.irow)
			r := it.irow
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
				ok, err := it.jc.holds(l, r)
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
					it.jc.appendPair(dst, l, r)
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
				it.jc.appendPair(dst, it.block[it.padPos], nil)
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

// hasNullKey reports whether any of the row's key positions is NULL. A
// NULL join key never matches anything (NULL = x is UNKNOWN), even though
// types.Compare orders NULLs equal.
func hasNullKey(r types.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].IsNull() {
			return true
		}
	}
	return false
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
				ok, err := it.jc.holds(lRun[it.li], rRun[it.ri])
				if err != nil {
					return err
				}
				if ok {
					it.jc.appendPair(dst, lRun[it.li], rRun[it.ri])
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
		if hasNullKey(l, it.jc.lKeys) {
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
