package exec

import (
	"fmt"
	"slices"
	"unsafe"

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
	argCol []int
	argFns []expr.Compiled
	having *expr.Filter // over the inner schema; nil = none
	// Output i is the inner column outCol[i], or, when that is -1, the
	// value outputs[i] computes. outputs is nil for the identity. An
	// output naming the inner column of an earlier one is a copy of the
	// earliest, outCopy[i]; -1 for every other.
	outputs  []expr.Compiled
	outCol   []int
	outCopy  []int
	computed bool // some output is computed
	scalar   bool // no grouping columns: always emit one row
}

// groupByCtx is an aggregation over a groupBySpec, as a tree runs it: the
// run's executor and the state of the groups in flight, numbered from 0 in
// creation order.
type groupByCtx struct {
	*groupBySpec
	ex *Executor

	row    types.Row   // an input row gathered for a computed argument, or an inner row for a computed output
	groups int         // the groups in flight; the states may hold one more, to come (reserve)
	states []aggState  // per aggregate
	pooled *[]aggState // where states came from (statePool)
	inner  *Batch      // pooled: the finished groups' keys and aggregates, in vectors of its own
	gids   []int32     // sort aggregation: the group ids of a run's rows, all one
}

// aggState is one aggregate's state for every group, in typed arrays
// indexed by group id. It folds as expr.AggState does: COUNT keeps its
// count in n; AVG its sum in f and its count in n; SUM its INT sum in n or,
// once a FLOAT arrives, its FLOAT sum in f, with sk saying which (NULL
// before any input); MIN and MAX the best input so far, an INT in n, a
// FLOAT in f and a value of another kind in v, with sk its kind (NULL
// before any input); MEDIAN and a user-defined aggregate an accumulator of
// their own in boxed. v is empty until some group's best is of another
// kind, and then as long as sk.
type aggState struct {
	kind  expr.AggKind
	n     []int64
	f     []float64
	sk    []types.Kind
	v     []types.Value
	boxed []expr.Accumulator
}

// reserve gives the state room for n groups, every one added empty.
func (s *aggState) reserve(a *expr.Agg, n int) {
	switch s.kind {
	case expr.AggCountStar, expr.AggCount:
		s.n = extend(s.n, n)
	case expr.AggAvg:
		s.n, s.f = extend(s.n, n), extend(s.f, n)
	case expr.AggSum, expr.AggMin, expr.AggMax:
		s.n, s.f, s.sk = extend(s.n, n), extend(s.f, n), extend(s.sk, n) // the zero Kind is NULL
		if len(s.v) > 0 {
			s.v = extend(s.v, n)
		}
	default:
		for len(s.boxed) < n {
			s.boxed = append(s.boxed, a.NewAccumulator())
		}
	}
}

// extend returns s holding n elements, those past its length zero.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
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
		if s.sk[g] == types.KindNull || types.Compare(x, s.result(int(g))) < 0 {
			s.setBest(g, x)
		}
	case expr.AggMax:
		if s.sk[g] == types.KindNull || types.Compare(x, s.result(int(g))) > 0 {
			s.setBest(g, x)
		}
	}
}

// setBest makes x, not NULL, MIN or MAX's best for group g.
func (s *aggState) setBest(g int32, x types.Value) {
	switch s.sk[g] = x.K; x.K {
	case types.KindInt:
		s.n[g] = x.I
	case types.KindFloat:
		s.f[g] = x.F()
	default:
		if len(s.v) == 0 {
			s.v = extend(s.v, len(s.sk))
		}
		s.v[g] = x
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
	case expr.AggSum, expr.AggMin, expr.AggMax:
		switch s.sk[g] {
		case types.KindNull:
			return types.Null()
		case types.KindInt:
			return types.NewInt(s.n[g])
		case types.KindFloat:
			return types.NewFloat(s.f[g])
		}
		return s.v[g]
	default:
		return s.boxed[g].Result()
	}
}

// appendResults appends the values of groups 0 to n-1 to v: straight from
// a typed array when every group's value is of its kind, value by value
// otherwise.
func (s *aggState) appendResults(v *types.Vector, n int) {
	switch s.kind {
	case expr.AggCountStar, expr.AggCount:
		v.AppendInts(s.n[:n])
		return
	case expr.AggSum, expr.AggMin, expr.AggMax:
		switch {
		case allOf(s.sk[:n], types.KindInt):
			v.AppendInts(s.n[:n])
			return
		case allOf(s.sk[:n], types.KindFloat):
			v.AppendFloats(s.f[:n])
			return
		}
	}
	for g := range n {
		v.AppendRef(s.result(g))
	}
}

// allOf reports whether every kind of ks is k.
func allOf(ks []types.Kind, k types.Kind) bool {
	for _, x := range ks {
		if x != k {
			return false
		}
	}
	return true
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
	if len(g.Having) > 0 {
		if spec.having, err = expr.CompileFilter(g.Having, inner); err != nil {
			return nil, err
		}
	}
	for _, ne := range g.Outputs {
		fn, err := expr.Compile(ne.E, inner)
		if err != nil {
			return nil, err
		}
		col := -1
		if c, ok := ne.E.(*expr.ColRef); ok {
			col, _ = inner.IndexOf(c.ID) // resolved: it compiled
		}
		spec.computed = spec.computed || col < 0
		spec.outputs, spec.outCol = append(spec.outputs, fn), append(spec.outCol, col)
		spec.outCopy = append(spec.outCopy, -1)
		if first := slices.Index(spec.outCol, col); col >= 0 && first < len(spec.outCol)-1 {
			spec.outCopy[len(spec.outCopy)-1] = first
		}
	}
	return spec, nil
}

// statePool recycles aggregation states, their arrays grown, across runs.
var statePool recycler[[]aggState]

// reserve readies the states of n groups, those not yet in flight empty.
func (c *groupByCtx) reserve(n int) {
	if c.pooled == nil {
		c.pooled = statePool.get()
		c.states = slices.Grow((*c.pooled)[:0], len(c.aggs))[:len(c.aggs)]
		for i := range c.states {
			c.states[i].drop()
			c.states[i].kind = c.aggs[i].Kind
		}
	}
	for i := range c.states {
		c.states[i].reserve(&c.aggs[i], n)
	}
}

// dropGroups forgets every group, keeping the storage for the next ones.
func (c *groupByCtx) dropGroups() {
	c.groups = 0
	for i := range c.states {
		c.states[i].drop()
	}
}

// release returns the states and the finishing vectors to their pools;
// the context holds no group after it.
func (c *groupByCtx) release() {
	putStore(c.inner)
	c.inner, c.groups = nil, 0
	clear(c.row)
	if c.pooled == nil {
		return
	}
	for i := range c.states {
		c.states[i].drop()
	}
	*c.pooled = c.states
	statePool.put(c.pooled)
	c.states, c.pooled = nil, nil
}

// groupIDs returns n group ids of g, for the rows of a sort aggregation's
// run, which are all one group.
func (c *groupByCtx) groupIDs(g, n int) []int32 {
	if len(c.gids) < n {
		c.gids = make([]int32, max(n, DefaultBatchSize))
	}
	ids := c.gids[:n]
	for i := range ids {
		ids[i] = int32(g)
	}
	return ids
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
	case s.kind == expr.AggSum: // FLOATs
		for i, k := range sel {
			if g := gids[i]; s.sk[g] == types.KindFloat {
				s.f[g] += v.Floats[k]
			} else {
				s.f[g], s.sk[g] = float64(s.n[g])+v.Floats[k], types.KindFloat
			}
		}
	case (s.kind == expr.AggMin || s.kind == expr.AggMax) && v.K == types.KindInt:
		isMax := s.kind == expr.AggMax
		for i, k := range sel {
			g, x := gids[i], v.Ints[k]
			switch s.sk[g] {
			case types.KindInt:
				if x < s.n[g] && !isMax || x > s.n[g] && isMax {
					s.n[g] = x
				}
			case types.KindNull:
				s.n[g], s.sk[g] = x, types.KindInt
			default:
				s.add(g, types.NewInt(x))
			}
		}
	case s.kind == expr.AggMin || s.kind == expr.AggMax: // FLOATs
		isMax := s.kind == expr.AggMax
		for i, k := range sel {
			g, x := gids[i], v.Floats[k]
			switch s.sk[g] {
			case types.KindFloat:
				// types.Compare's order: NaN above every number.
				if best := s.f[g]; isMax && (x > best || x != x && best == best) || !isMax && (x < best || best != best && x == x) {
					s.f[g] = x
				}
			case types.KindNull:
				s.f[g], s.sk[g] = x, types.KindFloat
			default:
				s.add(g, types.NewFloat(x))
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
			if v, err = fn(c.row, c.ex.params); err != nil {
				return err
			}
		}
		s.add(gids[j], v)
	}
	return nil
}

var countStarArg = types.NewInt(1)

// keys returns the vectors the groups' keys go to, emptied, for the caller
// to fill before finish.
func (c *groupByCtx) keys() []types.Vector {
	if c.inner == nil {
		c.inner = getStore()
	}
	c.inner.startOwn(len(c.groupPos) + len(c.aggs))
	return c.inner.Cols[:len(c.groupPos)]
}

// finish appends the groups in flight to dst's own vectors, started with
// startOwn, and forgets them; keys has filled their key vectors. It works
// column by column over the inner rows, the groups' keys and aggregates:
// the aggregates' vectors are written from the states' typed arrays,
// Having narrows a selection over the inner vectors, computed outputs read
// the inner rows, gathered one by one, and a bare-column output takes its
// inner vector: moved when it is dst's first and every group is kept, and
// gathered by the selection otherwise.
func (c *groupByCtx) finish(dst *Batch) error {
	n, nk, inner := c.groups, len(c.groupPos), c.inner
	inner.N = n
	for i := range c.states {
		c.states[i].appendResults(&inner.Cols[nk+i], n)
	}
	c.dropGroups()
	rows := inner.selectAll(n) // the groups Having keeps
	if c.having != nil {
		var err error
		if rows, err = c.having.Select(inner.Cols, rows, c.ex.params); err != nil {
			return err
		}
	}
	for k := 0; k < len(rows) && c.computed; k++ {
		c.row = inner.Row(int(rows[k]), c.row)
		for i, fn := range c.outputs {
			if c.outCol[i] < 0 {
				v, err := fn(c.row, c.ex.params)
				if err != nil {
					return err
				}
				dst.Cols[i].AppendRef(v)
			}
		}
	}
	whole := len(rows) == n && dst.N == 0
	for i := range dst.Cols {
		j := i
		if c.outputs != nil {
			if j = c.outCol[i]; j < 0 {
				continue
			}
		}
		switch {
		case !whole:
			dst.Cols[i].AppendSel(&inner.Cols[j], rows)
		case c.outputs != nil && c.outCopy[i] >= 0: // the column moved to an earlier output
			dst.Cols[i].AppendSel(&dst.Cols[c.outCopy[i]], rows)
		default:
			dst.Cols[i], inner.Cols[j] = inner.Cols[j], dst.Cols[i]
		}
	}
	dst.N += len(rows)
	return nil
}

// width returns the number of columns of the output rows.
func (s *groupBySpec) width() int {
	if s.outputs != nil {
		return len(s.outputs)
	}
	return len(s.groupPos) + len(s.aggs)
}

func (c *compiler) groupBy(g *lplan.GroupBy) (*op, error) {
	input, err := c.input(g.In)
	if err != nil {
		return nil, err
	}
	spec, err := groupBySpecOf(g, input.sch)
	if err != nil {
		return nil, err
	}
	in := input.op
	switch g.Method {
	case lplan.AggSort:
		sorted := sortedInput(in, g.GroupCols, sortKeys{cols: spec.groupPos})
		return &op{newIter: func(e *Executor) BatchIterator {
			ctx := &groupByCtx{groupBySpec: spec, ex: e}
			return &sortAggIter{ctx: ctx, in: runReader{in: sorted(e), cols: spec.groupPos,
				fold: func(b *Batch, sel []int32) error { return ctx.fold(b, sel, ctx.groupIDs(ctx.groups, len(sel))) }}}
		}}, nil
	case lplan.AggHash, lplan.AggUnset:
		// Without an estimate, a group-by straight over an Input expects as
		// many groups as the run supplies rows.
		fromInput := g.Groups == 0 && readsInput(g.In)
		kind := tableKind(input.sch, spec.groupPos)
		return &op{newIter: func(e *Executor) BatchIterator {
			return &hashAggIter{exec: e, ctx: &groupByCtx{groupBySpec: spec, ex: e}, in: e.build(in),
				estimate: g.Groups, fromInput: fromInput, kind: kind}
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

// presized returns how many entries to reserve in a key table for an
// estimate of n: n, but no more than budget bytes hold at an entry's own
// bytes plus width values an entry.
func presized(n float64, width, budget int) int {
	perEntry := types.KeyEntryBytes + width*int(unsafe.Sizeof(types.Value{}))
	return int(min(max(n, 0), float64(budget/perEntry)))
}

// tableKind returns the kind of a one-column key, the column at keys of
// schema s, for a key table to start in the layout that suits it
// (types.KeyTable.Init); KindNull for a key of several columns.
func tableKind(s schema.Schema, keys []int) types.Kind {
	if len(keys) != 1 {
		return types.KindNull
	}
	return s[keys[0]].Type
}

// hashAggIter aggregates through an in-memory group table, partitioning the
// input to spill files when the table exceeds the budget. It consumes its
// input a batch at a time: the key table (types.KeyTable) looks the whole
// batch's keys up at once, then one loop adds each missing key as a group
// and counts its accounted width, or, over budget, sets the row aside for
// its partition (partitioner); the new groups' states are readied at once
// and the batch folds into them aggregate by aggregate (groupByCtx.fold).
// The groups are finished column by column (groupByCtx.finish), their keys
// copied from the table's key vectors, and stream out in batches, in the
// order their first rows arrived.
type hashAggIter struct {
	exec      *Executor
	ctx       *groupByCtx
	in        BatchIterator
	estimate  float64    // the plan's group estimate, which presizes tab
	fromInput bool       // no estimate, over an Input: expect a group per input row
	kind      types.Kind // a one-column key's kind, which picks tab's layout (tableKind)

	tab     *types.KeyTable // pooled: group key -> group number
	kr      types.KeyRows   // the batch's keys
	keep    []int32         // the positions of the rows that fold, once one does not
	spilled []int32         // the positions of the batch's rows written to parts
	bytes   int             // accounted size of the group table
	// parts holds the overflow partitions as a field (not an Open local) so
	// Close drops them when Open fails after partitioning started.
	parts []*spill
	part  *partitioner // made with parts
	done  *Batch       // pooled: the finished groups, in vectors of its own
	out   blockIter
}

func (it *hashAggIter) Open() error {
	width, groups := len(it.ctx.groupPos), it.estimate
	if it.fromInput {
		groups = float64(len(it.exec.input))
	}
	it.bytes = 0
	it.ctx.dropGroups()
	it.tab = types.GetKeyTable()
	it.tab.Init(width, presized(groups, width, it.exec.budgetBytes), it.kind)
	it.done = getStore()
	it.done.startOwn(it.ctx.width())
	if err := it.consume(it.in, true); err != nil {
		return err
	}
	// SQL semantics: a scalar aggregate over an empty input yields one row.
	if it.ctx.scalar && it.ctx.groups == 0 {
		it.ctx.reserve(1)
		it.ctx.groups = 1
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
		it.tab.Init(width, 0, it.kind)
		if err := it.consume(spillScan(p, it.exec), false); err != nil {
			return err
		}
		if err := it.finishGroups(); err != nil {
			return err
		}
		p.drop()
	}
	it.out = blockIter{blk: it.done.Block, target: it.exec.batchSize}
	return it.out.Open()
}

// consume folds every row of in into the group table. With partition set,
// once the table is over budget the rows of groups not in it go to the
// spill partitions instead; rows of resident groups keep accumulating in
// memory, so a group never splits between the table and the partitions.
func (it *hashAggIter) consume(in BatchIterator, partition bool) error {
	ctx := it.ctx
	// Accounted bytes mirror the cost model's group-table estimate (the
	// output row width), so the executor spills exactly where the model
	// predicts a spill: a group's key, as Row.DiskWidth counts it, and a
	// word per aggregate.
	perGroup := types.Row(nil).DiskWidth() + 8*len(ctx.aggs)
	return drainBatches(in, func(b *Batch) error {
		kr := it.kr.Of(b.Cols, ctx.groupPos, b.selection())
		it.tab.Hash(kr)
		gids := b.groupIDs()
		it.tab.Lookup(kr, gids)
		started := it.tab.Len()
		// The rows that stay, with their group ids, are packed to the
		// front: a row written to a partition is not folded.
		keep, n, spilled := kr.Sel, 0, it.spilled[:0]
		for i, k := range kr.Sel {
			g, over := int(gids[i]), partition && it.parts != nil
			if g < 0 && over && it.tab.Len() > started {
				g = it.tab.Find(kr, i) // a group an earlier row of the batch started
			}
			switch {
			case g >= 0:
			case over: // the row goes to the partition of its group
				if len(spilled) == 0 { // the first row not kept
					keep = append(it.keep[:0], kr.Sel[:n]...)
				}
				spilled = append(spilled, k)
				continue
			default:
				var added bool
				if g, added = it.tab.Add(kr, i); !added {
					break
				}
				it.bytes += perGroup
				for _, v := range kr.Vecs {
					it.bytes += v.DiskWidth(int(k))
				}
				if partition && it.bytes > it.exec.budgetBytes {
					it.parts, it.part = make([]*spill, spillPartitions), new(partitioner)
					for p := range it.parts {
						it.parts[p] = newSpill(it.exec.pg, "agg-part")
					}
				}
			}
			if len(spilled) > 0 {
				keep = append(keep, k)
			}
			gids[n] = int32(g)
			n++
		}
		if len(spilled) > 0 {
			it.keep, it.spilled = keep[:0], spilled[:0]
			if err := it.part.add(it.parts, &b.Block, ctx.groupPos, spilled); err != nil {
				return err
			}
		}
		if it.tab.Len() > ctx.groups { // the batch started groups
			ctx.reserve(it.tab.Len())
			ctx.groups = it.tab.Len()
		}
		return ctx.fold(b, keep[:n], gids[:n])
	})
}

// finishGroups appends the table's groups to the output and forgets them.
func (it *hashAggIter) finishGroups() error {
	it.tab.AppendKeys(it.ctx.keys())
	return it.ctx.finish(it.done)
}

func (it *hashAggIter) NextBatch(dst *Batch) error { return it.out.NextBatch(dst) }

func (it *hashAggIter) Close() error {
	it.in.Close() // consume already closed it on the Open path; idempotent
	it.ctx.release()
	putStore(it.done)
	types.PutKeyTable(it.tab)
	it.done, it.out, it.tab, it.kr = nil, blockIter{}, nil, types.KeyRows{}
	for _, p := range it.parts {
		p.drop()
	}
	it.parts = nil
	return nil
}

// sortAggIter aggregates an input sorted on the grouping columns. Each run
// of equal grouping values is one group: the run reader folds its rows into
// the group's state as it reads them, a batch's stretch of the run at a
// time, and keeps the run's first row, whose keys are the group's. The
// groups of as many runs as the output batch has room for are finished
// together, as a hash aggregation's are. Without grouping columns the whole
// input is one run.
type sortAggIter struct {
	ctx  *groupByCtx
	in   runReader
	done bool
}

// firstRow selects a block's first row.
var firstRow = []int32{0}

func (it *sortAggIter) Open() error {
	it.done = false
	it.ctx.dropGroups()
	return it.in.Open()
}

func (it *sortAggIter) NextBatch(dst *Batch) error {
	dst.Reset()
	dst.startOwn(it.ctx.width())
	ctx := it.ctx
	target := ctx.ex.batchSize
	for !it.done && dst.N < target {
		keys := ctx.keys()
		for room := target - dst.N; ctx.groups < room && !it.done; {
			// The run about to be read folds into group ctx.groups.
			ctx.reserve(ctx.groups + 1)
			ok, err := it.in.next()
			if err != nil {
				return err
			}
			// A scalar aggregate's one run is its last, and SQL semantics give
			// it one row even over an empty input, of empty aggregates.
			it.done = !ok || ctx.scalar
			if !ok && !ctx.scalar {
				break
			}
			for j, p := range ctx.groupPos {
				keys[j].AppendSel(&it.in.run.Cols[p], firstRow)
			}
			ctx.groups++
		}
		if err := ctx.finish(dst); err != nil {
			return err
		}
	}
	return nil
}

func (it *sortAggIter) Close() error {
	it.ctx.release()
	return it.in.Close()
}
