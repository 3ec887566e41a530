package exec

import (
	"fmt"
	"slices"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// groupBySpec holds the compiled pieces of a GroupBy shared by both
// aggregation methods: everything about it that depends only on the plan.
type groupBySpec struct {
	groupPos []int // grouping column positions in the input
	aggs     []expr.Agg
	// Aggregate i's argument is the input column argCol[i], or, when that
	// is -1, the value argFns[i] computes (nil for COUNT(*)).
	argCol  []int
	argFns  []expr.Compiled
	having  *expr.Filter    // over the inner schema
	outputs []expr.Compiled // over the inner schema; nil = identity
	scalar  bool            // no grouping columns: always emit one row
}

// groupByCtx is one run's aggregation over a groupBySpec: the run's
// parameters and the state of the groups in flight, numbered from 0 in
// creation order.
type groupByCtx struct {
	*groupBySpec
	params []types.Value

	inner  types.Row // the inner row of the group being finished
	out    types.Row // its output row, when outputs re-project it
	row    types.Row // an input row gathered for a computed argument
	groups int
	states []aggState  // per aggregate
	pooled *[]aggState // where states came from (statePool)
	zeros  []int32     // sort aggregation: the group ids of a run's rows, all 0
}

// aggState is one aggregate's state for every group, in typed arrays
// indexed by group id. It folds as expr.AggState does: COUNT keeps its
// count in n; AVG its sum in f and its count in n; SUM its INT sum in n or,
// once a FLOAT arrives, its FLOAT sum in f, with sk saying which (NULL
// before any input); MIN and MAX the best input so far in v; MEDIAN and a
// user-defined aggregate an accumulator of their own in boxed.
type aggState struct {
	kind  expr.AggKind
	n     []int64
	f     []float64
	sk    []types.Kind
	v     []types.Value
	boxed []expr.Accumulator
}

// grow adds an empty group's state.
func (s *aggState) grow(a *expr.Agg) {
	switch s.kind {
	case expr.AggCountStar, expr.AggCount:
		s.n = append(s.n, 0)
	case expr.AggAvg:
		s.n, s.f = append(s.n, 0), append(s.f, 0)
	case expr.AggSum:
		s.n, s.f, s.sk = append(s.n, 0), append(s.f, 0), append(s.sk, types.KindNull)
	case expr.AggMin, expr.AggMax:
		s.v = append(s.v, types.Value{})
	default:
		s.boxed = append(s.boxed, a.NewAccumulator())
	}
}

// drop forgets every group's state, keeping the arrays.
func (s *aggState) drop() {
	clear(s.v)
	clear(s.boxed)
	s.n, s.f, s.sk, s.v, s.boxed = s.n[:0], s.f[:0], s.sk[:0], s.v[:0], s.boxed[:0]
}

// add folds x into group g, as expr.AggState.Add does.
func (s *aggState) add(g int32, x types.Value) {
	if s.kind.StateSlots() == 0 {
		s.boxed[g].Add(x)
		return
	}
	if x.K == types.KindNull {
		return
	}
	switch s.kind {
	case expr.AggCountStar, expr.AggCount:
		s.n[g]++
	case expr.AggSum:
		s.sum(g, x)
	case expr.AggAvg:
		s.f[g] += x.Float()
		s.n[g]++
	case expr.AggMin:
		if s.v[g].K == types.KindNull || types.Compare(x, s.v[g]) < 0 {
			s.v[g] = x
		}
	case expr.AggMax:
		if s.v[g].K == types.KindNull || types.Compare(x, s.v[g]) > 0 {
			s.v[g] = x
		}
	}
}

// sum folds the non-NULL x into SUM's group g.
func (s *aggState) sum(g int32, x types.Value) {
	switch {
	case s.sk[g] == types.KindFloat:
		s.f[g] += x.Float()
	case x.K == types.KindFloat:
		s.f[g], s.sk[g] = float64(s.n[g])+x.F(), types.KindFloat
	default:
		s.n[g] += x.Int()
		s.sk[g] = types.KindInt
	}
}

// result returns group g's value, as expr.AggState.Result does.
func (s *aggState) result(g int) types.Value {
	switch s.kind {
	case expr.AggCountStar, expr.AggCount:
		return types.NewInt(s.n[g])
	case expr.AggAvg:
		if s.n[g] == 0 {
			return types.Null()
		}
		return types.NewFloat(s.f[g] / float64(s.n[g]))
	case expr.AggSum:
		switch s.sk[g] {
		case types.KindInt:
			return types.NewInt(s.n[g])
		case types.KindFloat:
			return types.NewFloat(s.f[g])
		}
		return types.Null()
	case expr.AggMin, expr.AggMax:
		return s.v[g]
	default:
		return s.boxed[g].Result()
	}
}

// groupBySpecOf compiles g over input rows of schema in.
func groupBySpecOf(g *lplan.GroupBy, in schema.Schema) (*groupBySpec, error) {
	groupPos, err := colIndexes(in, g.GroupCols)
	if err != nil {
		return nil, err
	}
	n := len(g.Aggs)
	spec := &groupBySpec{groupPos: groupPos, aggs: g.Aggs, scalar: len(g.GroupCols) == 0,
		argCol: make([]int, n), argFns: make([]expr.Compiled, n)}
	for i, a := range g.Aggs {
		spec.argCol[i] = -1
		if a.Arg != nil {
			if spec.argFns[i], err = expr.Compile(a.Arg, in); err != nil {
				return nil, err
			}
			if c, ok := a.Arg.(*expr.ColRef); ok {
				spec.argCol[i], _ = in.IndexOf(c.ID) // resolved: it compiled
			}
		}
	}
	inner := g.InnerSchema()
	if spec.having, err = expr.CompileFilter(g.Having, inner); err != nil {
		return nil, err
	}
	for _, ne := range g.Outputs {
		fn, err := expr.Compile(ne.E, inner)
		if err != nil {
			return nil, err
		}
		spec.outputs = append(spec.outputs, fn)
	}
	return spec, nil
}

// statePool recycles aggregation states, their arrays grown, across runs.
var statePool recycler[[]aggState]

// newGroup starts the next group, with every aggregate empty.
func (c *groupByCtx) newGroup() {
	if c.states == nil {
		c.pooled = statePool.get()
		c.states = slices.Grow((*c.pooled)[:0], len(c.aggs))[:len(c.aggs)]
		for i := range c.states {
			c.states[i].drop()
			c.states[i].kind = c.aggs[i].Kind
		}
	}
	for i := range c.states {
		c.states[i].grow(&c.aggs[i])
	}
	c.groups++
}

// dropGroups forgets every group, keeping the storage for the next ones.
func (c *groupByCtx) dropGroups() {
	c.groups = 0
	for i := range c.states {
		c.states[i].drop()
	}
}

// release returns the states to the pool; the context holds no group
// after it.
func (c *groupByCtx) release() {
	if c.states == nil {
		return
	}
	for i := range c.states {
		c.states[i].drop()
	}
	*c.pooled = c.states
	statePool.put(c.pooled)
	c.states, c.pooled, c.groups = nil, nil, 0
}

// group0 returns n group ids of 0, for the rows of a sort aggregation's
// run, which are all one group.
func (c *groupByCtx) group0(n int) []int32 {
	if len(c.zeros) < n {
		c.zeros = make([]int32, max(n, DefaultBatchSize))
	}
	return c.zeros[:n]
}

// fold folds the rows of b at positions sel into their groups, the row at
// sel[i] into group gids[i]. Each aggregate takes one pass over the rows:
// COUNT(*) counts, and COUNT, SUM, AVG, MIN and MAX of a column read its
// vector, straight from its typed slice when it holds one kind and no
// NULL. A computed argument is evaluated over the gathered row, and a
// MEDIAN or user-defined aggregate folded, row by row within the pass.
// Either way a group's rows fold in input order, so a FLOAT sum adds in the
// order a row-at-a-time fold would.
func (c *groupByCtx) fold(b *Batch, sel, gids []int32) error {
	for i, a := range c.aggs {
		s, col := &c.states[i], c.argCol[i]
		switch {
		case a.Kind == expr.AggCountStar:
			for _, g := range gids {
				s.n[g]++
			}
		case col >= 0 && a.Kind.StateSlots() > 0:
			foldColumn(s, &b.Cols[col], sel, gids)
		default:
			if err := c.foldRows(i, b, sel, gids); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldColumn folds the values of v at sel into s's groups gids. The loops
// over a typed slice decide inline what aggState.add decides for the rest.
func foldColumn(s *aggState, v *types.Vector, sel, gids []int32) {
	typed := v.Nulls == nil && (v.K == types.KindInt || v.K == types.KindFloat)
	switch {
	case !typed:
		for i, k := range sel {
			s.add(gids[i], v.Value(int(k)))
		}
	case s.kind == expr.AggCount:
		for _, g := range gids {
			s.n[g]++
		}
	case s.kind == expr.AggAvg && v.K == types.KindInt:
		for i, k := range sel {
			g := gids[i]
			s.f[g] += float64(v.Ints[k])
			s.n[g]++
		}
	case s.kind == expr.AggAvg:
		for i, k := range sel {
			g := gids[i]
			s.f[g] += v.Floats[k]
			s.n[g]++
		}
	case s.kind == expr.AggSum && v.K == types.KindInt:
		for i, k := range sel {
			if g := gids[i]; s.sk[g] == types.KindFloat {
				s.f[g] += float64(v.Ints[k])
			} else {
				s.n[g] += v.Ints[k]
				s.sk[g] = types.KindInt
			}
		}
	case (s.kind == expr.AggMin || s.kind == expr.AggMax) && v.K == types.KindInt:
		isMax := s.kind == expr.AggMax
		for i, k := range sel {
			g, x := gids[i], v.Ints[k]
			if best := &s.v[g]; best.K != types.KindInt {
				s.add(g, types.NewInt(x))
			} else if x < best.I && !isMax || x > best.I && isMax {
				best.I = x
			}
		}
	default:
		for i, k := range sel {
			s.add(gids[i], v.Value(int(k)))
		}
	}
}

// foldRows folds aggregate i row by row: its argument computed over the
// gathered row, or its state boxed.
func (c *groupByCtx) foldRows(i int, b *Batch, sel, gids []int32) error {
	s, fn, col := &c.states[i], c.argFns[i], c.argCol[i]
	for j, k := range sel {
		v := countStarArg
		switch {
		case col >= 0:
			v = b.Cols[col].Value(int(k))
		case fn != nil:
			c.row = b.Row(int(k), c.row)
			var err error
			if v, err = fn(c.row, c.params); err != nil {
				return err
			}
		}
		s.add(gids[j], v)
	}
	return nil
}

var countStarArg = types.NewInt(1)

// finish converts group g, whose grouping values are key, into the output
// row, applying Having and Outputs. ok=false means the group was filtered
// out. The row is scratch, valid until the next call.
func (c *groupByCtx) finish(g int, key types.Row) (types.Row, bool, error) {
	n := len(key) + len(c.aggs)
	if cap(c.inner) < n {
		c.inner = make(types.Row, n)
	}
	inner := c.inner[:n]
	copy(inner, key)
	for i := range c.aggs {
		inner[len(key)+i] = c.states[i].result(g)
	}
	keep, err := c.having.Holds(inner, c.params)
	if err != nil || !keep {
		return nil, false, err
	}
	if c.outputs == nil {
		return inner, true, nil
	}
	c.out = slices.Grow(c.out[:0], len(c.outputs))[:len(c.outputs)]
	for i, fn := range c.outputs {
		v, err := fn(inner, c.params)
		if err != nil {
			return nil, false, err
		}
		c.out[i] = v
	}
	return c.out, true, nil
}

// width returns the number of columns of the output rows.
func (s *groupBySpec) width() int {
	if s.outputs != nil {
		return len(s.outputs)
	}
	return len(s.groupPos) + len(s.aggs)
}

func compileGroupBy(g *lplan.GroupBy) (*op, error) {
	input, err := compileInput(g.In)
	if err != nil {
		return nil, err
	}
	spec, err := groupBySpecOf(g, input.sch)
	if err != nil {
		return nil, err
	}
	in := input.op
	newCtx := func(e *Executor) *groupByCtx {
		return &groupByCtx{groupBySpec: spec, params: e.params}
	}
	switch g.Method {
	case lplan.AggSort:
		sorted := sortedInput(in, g.GroupCols, sortKeys{cols: spec.groupPos})
		return &op{newIter: func(e *Executor) BatchIterator {
			ctx := newCtx(e)
			return &sortAggIter{ctx: ctx, target: e.batchSize, in: runReader{in: sorted(e), cols: spec.groupPos,
				fold: func(b *Batch, sel []int32) error { return ctx.fold(b, sel, ctx.group0(len(sel))) }}}
		}}, nil
	case lplan.AggHash, lplan.AggUnset:
		// Without an estimate, a group-by straight over an Input expects as
		// many groups as the run supplies rows.
		fromInput := g.Groups == 0 && readsInput(g.In)
		return &op{newIter: func(e *Executor) BatchIterator {
			groups := g.Groups
			if fromInput {
				groups = float64(len(e.input))
			}
			return &hashAggIter{exec: e, ctx: newCtx(e), in: e.build(in), groups: groups}
		}}, nil
	default:
		return nil, fmt.Errorf("exec: unknown aggregation method %v", g.Method)
	}
}

// readsInput reports whether n is an Input leaf, or filters of one.
func readsInput(n lplan.Node) bool {
	for {
		switch t := n.(type) {
		case *lplan.Input:
			return true
		case *lplan.Filter:
			n = t.In
		default:
			return false
		}
	}
}

// hashAggIter aggregates through an in-memory group table, partitioning the
// input to spill files when the table exceeds the budget. It consumes its
// input a batch at a time: it hashes the batch's key columns, resolves every
// row's group id in one loop, starting groups as keys first arrive, then
// folds the batch into the groups' states aggregate by aggregate
// (groupByCtx.fold). The finished groups stream out in batches, in the
// order their first rows arrived.
type hashAggIter struct {
	exec *Executor
	ctx  *groupByCtx
	in   BatchIterator

	tab    *keyTable      // pooled: group key -> group number
	groups float64        // the group estimate, which presizes tab
	kr     keyRows        // the batch's keys
	keep   []int32        // the positions of the rows that fold, once one does not
	key    [1]types.Value // room for the table to spell out a bare INT key
	keyBuf []byte         // key encoding of a row being partitioned
	row    types.Row      // a row being partitioned
	bytes  int            // accounted size of the group table
	// parts holds the overflow partitions as a field (not an Open local) so
	// Close drops them when Open fails after partitioning started.
	parts []*spill
	done  *Batch // pooled: the finished groups, in vectors of its own
	out   *blockIter
}

func (it *hashAggIter) Open() error {
	width := len(it.ctx.groupPos)
	it.tab = getKeyTable()
	it.tab.init(width, presized(it.groups, width, it.exec.budgetBytes))
	it.done = getStore()
	it.done.startOwn(it.ctx.width())
	if err := it.consume(it.in, true); err != nil {
		return err
	}
	// SQL semantics: a scalar aggregate over an empty input yields one row.
	if it.ctx.scalar && it.ctx.groups == 0 {
		it.ctx.newGroup()
	}
	if err := it.finishGroups(); err != nil {
		return err
	}
	// Each partition holds whole groups, none of them in the table when its
	// rows were written, and is aggregated through the same table.
	for _, p := range it.parts {
		if err := p.finish(); err != nil {
			return err
		}
		it.tab.init(width, 0)
		if err := it.consume(spillScan(p, it.exec.batchSize), false); err != nil {
			return err
		}
		if err := it.finishGroups(); err != nil {
			return err
		}
		p.drop()
	}
	it.out = &blockIter{blk: it.done.Block, target: it.exec.batchSize}
	return it.out.Open()
}

// consume folds every row of in into the group table. With partition set,
// once the table is over budget the rows of groups not in it go to the
// spill partitions instead; rows of resident groups keep accumulating in
// memory, so a group never splits between the table and the partitions.
func (it *hashAggIter) consume(in BatchIterator, partition bool) error {
	ctx := it.ctx
	return drainBatches(in, func(b *Batch) error {
		kr := it.kr.of(b, ctx.groupPos)
		it.tab.hash(kr)
		gids := b.groupIDs()
		// The rows that stay, with their group ids, are packed to the
		// front: a row written to a partition is not folded.
		keep, n, copied := kr.sel, 0, false
		ints, dense := it.tab.denseInts(kr)
		for i, k := range kr.sel {
			var g int
			if dense && it.tab.dense { // an insert may leave the layout
				g = it.tab.denseAt(ints[k])
			} else {
				g = it.tab.lookup(kr, i)
			}
			if g < 0 {
				if partition && it.parts != nil {
					// The partition comes from the key's byte encoding, not
					// from the table's hash: which rows share a spill file,
					// and so every page count, stays as it always was.
					it.row = b.Row(int(k), it.row)
					it.keyBuf = it.row.AppendKey(it.keyBuf[:0], ctx.groupPos)
					if err := it.parts[partitionOf(it.keyBuf)].add(it.row); err != nil {
						return err
					}
					if !copied { // the first row not kept
						keep, copied = append(it.keep[:0], kr.sel[:n]...), true
					}
					continue
				}
				ctx.newGroup()
				g = it.tab.insert(kr, i)
				// Accounted bytes mirror the cost model's group-table
				// estimate (the output row width), so the executor spills
				// exactly where the model predicts a spill.
				it.bytes += it.tab.key(g, it.key[:]).DiskWidth() + 8*len(ctx.aggs)
				if partition && it.bytes > it.exec.budgetBytes {
					it.parts = make([]*spill, spillPartitions)
					for p := range it.parts {
						it.parts[p] = newSpill(it.exec.pg, "agg-part")
					}
				}
			}
			if copied {
				keep = append(keep, k)
			}
			gids[n] = int32(g)
			n++
		}
		if copied {
			it.keep = keep[:0]
		}
		return ctx.fold(b, keep[:n], gids[:n])
	})
}

// finishGroups appends the table's groups to the output and forgets them.
func (it *hashAggIter) finishGroups() error {
	for g := 0; g < it.ctx.groups; g++ {
		row, ok, err := it.ctx.finish(g, it.tab.key(g, it.key[:]))
		if err != nil {
			return err
		}
		if ok {
			it.done.appendRow(row)
		}
	}
	it.ctx.dropGroups()
	return nil
}

func (it *hashAggIter) NextBatch(dst *Batch) error { return it.out.NextBatch(dst) }

func (it *hashAggIter) Close() error {
	it.in.Close() // consume already closed it on the Open path; idempotent
	it.ctx.release()
	putStore(it.done)
	putKeyTable(it.tab)
	it.done, it.out, it.tab = nil, nil, nil
	for _, p := range it.parts {
		p.drop()
	}
	it.parts = nil
	return nil
}

// sortAggIter aggregates an input sorted on the grouping columns. Each run
// of equal grouping values is one group: the run reader folds its rows into
// the context's group 0 as it reads them, a batch's stretch of the run at a
// time, and the group is finished before the next run starts. Without
// grouping columns the whole input is one run.
type sortAggIter struct {
	ctx    *groupByCtx
	target int
	in     runReader

	key  types.Row // the grouping values of the group being finished
	done bool
}

func (it *sortAggIter) Open() error {
	it.done = false
	it.ctx.dropGroups()
	return it.in.Open()
}

func (it *sortAggIter) NextBatch(dst *Batch) error {
	dst.Reset()
	dst.startOwn(it.ctx.width())
	for !it.done && dst.N < it.target {
		it.ctx.newGroup()
		first, err := it.in.next()
		if err != nil {
			return err
		}
		// A scalar aggregate's one run is its last, and SQL semantics give
		// it one row even over an empty input, of empty aggregates.
		it.done = first == nil || it.ctx.scalar
		if first == nil && !it.ctx.scalar {
			break
		}
		it.key = it.key[:0]
		for _, p := range it.ctx.groupPos {
			it.key = append(it.key, first[p])
		}
		row, ok, err := it.ctx.finish(0, it.key)
		it.ctx.dropGroups()
		if err != nil {
			return err
		}
		if ok {
			dst.appendRow(row)
		}
	}
	return nil
}

func (it *sortAggIter) Close() error {
	it.ctx.release()
	return it.in.Close()
}
