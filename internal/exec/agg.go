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
	// Aggregate i's state is the expr.AggState at stateAt[i] among a
	// group's nSlots state values. A MEDIAN or user-defined aggregate,
	// whose state is its own object, folds into a boxed accumulator
	// instead: boxedAt[i] is its slot among a group's nBoxed boxes, or -1
	// for the others.
	stateAt []int
	nSlots  int
	boxedAt []int
	nBoxed  int
}

// groupByCtx is one run's aggregation over a groupBySpec: the run's
// parameters and the accumulator state of the groups in flight.
type groupByCtx struct {
	*groupBySpec
	params []types.Value

	arena rowArena  // backs group states and finished output rows
	inner types.Row // the inner row being finished; reused when outputs re-project it

	// Groups are numbered from 0 in creation order. A group's state is its
	// nSlots values in a row carved from the arena, stateChunkGroups groups
	// to a carve; a boxed aggregate folds in boxed[g*nBoxed+boxedAt[i]]
	// instead.
	groups int
	states []types.Row
	boxed  []expr.Accumulator
	zeros  []int32 // sort aggregation: the group ids of a run's rows, all 0
}

// stateChunkGroups is how many groups' states one arena carve holds: with
// up to 32 state values a chunk still fits a slab, and a query of a few dozen
// groups takes a corner of the slab its output rows come from anyway.
const stateChunkGroups = 256

// groupBySpecOf compiles g over input rows of schema in.
func groupBySpecOf(g *lplan.GroupBy, in schema.Schema) (*groupBySpec, error) {
	groupPos, err := colIndexes(in, g.GroupCols)
	if err != nil {
		return nil, err
	}
	n := len(g.Aggs)
	spec := &groupBySpec{groupPos: groupPos, aggs: g.Aggs, scalar: len(g.GroupCols) == 0,
		argCol: make([]int, n), argFns: make([]expr.Compiled, n), stateAt: make([]int, n), boxedAt: make([]int, n)}
	for i, a := range g.Aggs {
		spec.stateAt[i], spec.boxedAt[i] = spec.nSlots, -1
		if n := a.Kind.StateSlots(); n > 0 {
			spec.nSlots += n
		} else {
			spec.boxedAt[i] = spec.nBoxed
			spec.nBoxed++
		}
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

// newGroup starts the next group, with every aggregate empty.
func (c *groupByCtx) newGroup() {
	if c.groups/stateChunkGroups == len(c.states) { // else a chunk kept by dropGroups
		c.states = append(c.states, c.arena.carve(stateChunkGroups*c.nSlots))
	}
	clear(c.stateOf(c.groups)) // arena space and reused chunks hold stale values
	for i, b := range c.boxedAt {
		if b >= 0 {
			c.boxed = append(c.boxed, c.aggs[i].NewAccumulator())
		}
	}
	c.groups++
}

// stateOf returns group g's state values.
func (c *groupByCtx) stateOf(g int) types.Row {
	n := c.nSlots
	return c.states[g/stateChunkGroups][g%stateChunkGroups*n:][:n]
}

// slot returns the first state value of group g's aggregate whose state
// sits at offset at.
func (c *groupByCtx) slot(g int32, at int) *types.Value {
	return &c.states[uint32(g)/stateChunkGroups][int(uint32(g)%stateChunkGroups)*c.nSlots+at]
}

// dropGroups forgets every group, keeping the storage for the next ones.
func (c *groupByCtx) dropGroups() {
	c.groups, c.boxed = 0, c.boxed[:0]
}

// group0 returns n group ids of 0, for the rows of a sort aggregation's
// run, which are all one group.
func (c *groupByCtx) group0(n int) []int32 {
	if len(c.zeros) < n {
		c.zeros = make([]int32, max(n, DefaultBatchSize))
	}
	return c.zeros[:n]
}

var countStarArg = types.NewInt(1)

// fold folds each row into its group, rows[k] into group gids[k]. Each
// aggregate takes one pass over the rows: COUNT(*) counts, and COUNT, SUM,
// AVG, MIN and MAX of a column read it from the row in a loop of their
// own. A computed argument is evaluated, and a MEDIAN or user-defined
// aggregate folded, row by row within the pass. Either way a group's rows
// fold in input order, so a FLOAT sum adds in the order a row-at-a-time
// fold would.
func (c *groupByCtx) fold(rows []types.Row, gids []int32) error {
	for i, a := range c.aggs {
		at, col := c.stateAt[i], c.argCol[i]
		switch {
		case c.boxedAt[i] >= 0 || col < 0 && c.argFns[i] != nil:
			if err := c.foldRows(i, rows, gids); err != nil {
				return err
			}
		case a.Kind == expr.AggCountStar:
			for _, g := range gids {
				s := c.slot(g, at)
				*s = types.NewInt(s.I + 1) // a NULL state's I is 0
			}
		default:
			c.foldColumn(a.Kind, at, rows, col, gids)
		}
	}
	return nil
}

// foldColumn folds column col of rows into aggregate state at of their
// groups. The cases each loop decides inline are those of
// expr.AggState.Add, which it calls for the rest.
func (c *groupByCtx) foldColumn(k expr.AggKind, at int, rows []types.Row, col int, gids []int32) {
	switch k {
	case expr.AggCount:
		for i, row := range rows {
			if row[col].K != types.KindNull {
				s := c.slot(gids[i], at)
				*s = types.NewInt(s.I + 1)
			}
		}
	case expr.AggSum:
		for i, row := range rows {
			v, s := &row[col], c.slot(gids[i], at)
			switch {
			case v.K == types.KindInt && s.K != types.KindFloat:
				*s = types.NewInt(s.I + v.I)
			case v.K == types.KindFloat && s.K == types.KindFloat:
				*s = types.NewFloat(s.F() + v.F())
			case v.K != types.KindNull:
				expr.AggState(c.stateOf(int(gids[i]))[at:]).Add(k, *v)
			}
		}
	case expr.AggAvg:
		for i, row := range rows {
			if v := &row[col]; v.K != types.KindNull {
				sum, n := c.slot(gids[i], at), c.slot(gids[i], at+1)
				*sum = types.NewFloat(sum.F() + v.Float())
				*n = types.NewInt(n.I + 1)
			}
		}
	case expr.AggMin, expr.AggMax:
		want := -1 // MIN replaces the state with a smaller value
		if k == expr.AggMax {
			want = 1
		}
		for i, row := range rows {
			v := &row[col]
			if v.K == types.KindNull {
				continue
			}
			s := c.slot(gids[i], at)
			switch {
			case s.K == types.KindNull:
				*s = *v
			case v.K == types.KindInt && s.K == types.KindInt:
				if v.I < s.I && want < 0 || v.I > s.I && want > 0 {
					*s = *v
				}
			case types.Compare(*v, *s) == want:
				*s = *v
			}
		}
	}
}

// foldRows folds aggregate i row by row: its argument computed, or its
// state boxed.
func (c *groupByCtx) foldRows(i int, rows []types.Row, gids []int32) error {
	fn, col, box, kind := c.argFns[i], c.argCol[i], c.boxedAt[i], c.aggs[i].Kind
	for k, row := range rows {
		v := countStarArg
		switch {
		case col >= 0:
			v = row[col]
		case fn != nil:
			var err error
			if v, err = fn(row, c.params); err != nil {
				return err
			}
		}
		if g := int(gids[k]); box >= 0 {
			c.boxed[g*c.nBoxed+box].Add(v)
		} else {
			expr.AggState(c.stateOf(g)[c.stateAt[i]:]).Add(kind, v)
		}
	}
	return nil
}

// finish converts group g, whose grouping values are key, into the output
// row, applying Having and Outputs. ok=false means the group was filtered
// out.
func (c *groupByCtx) finish(g int, key types.Row) (types.Row, bool, error) {
	// Without an output projection the inner row is the emitted row, so it
	// is carved from the arena (a Having rejection wastes the carve, which
	// is slab space, not an allocation). With outputs, the inner row only
	// feeds the evaluators and lives in a reusable scratch buffer.
	n := len(key) + len(c.aggs)
	if c.outputs == nil {
		c.inner = c.arena.carve(n)
	} else if cap(c.inner) < n {
		c.inner = make(types.Row, n)
	}
	inner := c.inner[:n]
	copy(inner, key)
	states := c.stateOf(g)
	for i, b := range c.boxedAt {
		if b >= 0 {
			inner[len(key)+i] = c.boxed[g*c.nBoxed+b].Result()
		} else {
			inner[len(key)+i] = expr.AggState(states[c.stateAt[i]:]).Result(c.aggs[i].Kind)
		}
	}
	keep, err := c.having.Holds(inner, c.params)
	if err != nil || !keep {
		return nil, false, err
	}
	if c.outputs == nil {
		return inner, true, nil
	}
	out := c.arena.carve(len(c.outputs))
	for i, fn := range c.outputs {
		v, err := fn(inner, c.params)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func compileGroupBy(g *lplan.GroupBy) (*op, error) {
	compile := compileInput
	if g.Method == lplan.AggHash || g.Method == lplan.AggUnset {
		compile = hashInput
	}
	input, err := compile(g.In)
	if err != nil {
		return nil, err
	}
	spec, err := groupBySpecOf(g, input.sch)
	if err != nil {
		return nil, err
	}
	in := input.op
	newCtx := func(e *Executor) *groupByCtx {
		return &groupByCtx{groupBySpec: spec, params: e.params, arena: rowArena{rec: &e.arenas}}
	}
	switch g.Method {
	case lplan.AggSort:
		sorted := sortedInput(in, g.GroupCols, sortKeys{cols: spec.groupPos})
		return &op{newIter: func(e *Executor) BatchIterator {
			ctx := newCtx(e)
			return &sortAggIter{ctx: ctx, target: e.batchSize, in: runReader{in: sorted(e), cols: spec.groupPos,
				fold: func(rows []types.Row) error { return ctx.fold(rows, ctx.group0(len(rows))) }}}
		}}, nil
	case lplan.AggHash, lplan.AggUnset:
		return &op{newIter: func(e *Executor) BatchIterator {
			return &hashAggIter{exec: e, ctx: newCtx(e), in: e.build(in), shape: input.shape, groups: g.Groups}
		}}, nil
	default:
		return nil, fmt.Errorf("exec: unknown aggregation method %v", g.Method)
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
	exec  *Executor
	ctx   *groupByCtx
	in    BatchIterator
	shape rowShape // of in's rows

	tab    keyTable       // group key -> group number
	groups float64        // the plan's group estimate, which presizes tab
	key    [1]types.Value // room for the table to spell out a bare INT key
	keyBuf []byte         // key encoding of a row being partitioned
	bytes  int            // accounted size of the group table
	// parts holds the overflow partitions as a field (not an Open local) so
	// Close drops them when Open fails after partitioning started.
	parts []*spill
	rows  []types.Row // finished groups
	out   *sliceIter
}

func (it *hashAggIter) Open() error {
	width := len(it.ctx.groupPos)
	it.tab.init(width, presized(it.groups, width, it.exec.budgetBytes))
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
		if err := it.consume(&spillIter{sp: p, target: it.exec.batchSize, shape: it.shape, arena: &it.ctx.arena}, false); err != nil {
			return err
		}
		if err := it.finishGroups(); err != nil {
			return err
		}
		p.drop()
	}
	it.out = newSliceIter(it.rows, it.exec.batchSize)
	return it.out.Open()
}

// consume folds every row of in into the group table. With partition set,
// once the table is over budget the rows of groups not in it go to the
// spill partitions instead; rows of resident groups keep accumulating in
// memory, so a group never splits between the table and the partitions.
func (it *hashAggIter) consume(in BatchIterator, partition bool) error {
	defer in.Close()
	if err := in.Open(); err != nil {
		return err
	}
	ctx := it.ctx
	b := getBatch()
	defer putBatch(b)
	for {
		if err := in.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		it.tab.hash(b, ctx.groupPos)
		gids := b.groupIDs()
		// The rows that stay, with their group ids, are packed to the
		// front of the batch: a row written to a partition is not folded.
		n := 0
		for i, row := range b.Rows {
			g := it.tab.lookup(b.hashes[i], row, ctx.groupPos)
			if g < 0 {
				if partition && it.parts != nil {
					// The partition comes from the key's byte encoding, not
					// from the table's hash: which rows share a spill file,
					// and so every page count, stays as it always was.
					it.keyBuf = row.AppendKey(it.keyBuf[:0], ctx.groupPos)
					if err := it.parts[partitionOf(it.keyBuf)].add(it.shape.cut(row, &ctx.arena)); err != nil {
						return err
					}
					continue
				}
				ctx.newGroup()
				g = it.tab.insert(b, i, ctx.groupPos)
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
			if n != i {
				b.Rows[n] = row
			}
			gids[n] = int32(g)
			n++
		}
		if err := ctx.fold(b.Rows[:n], gids[:n]); err != nil {
			return err
		}
	}
}

// finishGroups appends the table's groups to the output and empties it.
func (it *hashAggIter) finishGroups() error {
	it.rows = slices.Grow(it.rows, it.ctx.groups)
	for g := 0; g < it.ctx.groups; g++ {
		row, ok, err := it.ctx.finish(g, it.tab.key(g, it.key[:]))
		if err != nil {
			return err
		}
		if ok {
			it.rows = append(it.rows, row)
		}
	}
	it.ctx.dropGroups()
	it.tab.init(len(it.ctx.groupPos), 0)
	return nil
}

func (it *hashAggIter) NextBatch(dst *Batch) error { return it.out.NextBatch(dst) }

func (it *hashAggIter) Close() error {
	it.in.Close() // consume already closed it on the Open path; idempotent
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
	for !it.done && dst.Len() < it.target {
		it.ctx.newGroup()
		first, err := it.in.next()
		if err != nil {
			return err
		}
		// A scalar aggregate's one run is its last, and SQL semantics give
		// it one row even over an empty input, of empty aggregates.
		it.done = first == nil || it.ctx.scalar
		if first == nil && !it.ctx.scalar {
			return nil
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
			dst.Append(row)
		}
	}
	return nil
}

func (it *sortAggIter) Close() error { return it.in.Close() }
