package exec

import (
	"fmt"
	"slices"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/types"
)

// groupBySpec holds the compiled pieces of a GroupBy shared by both
// aggregation methods: everything about it that depends only on the plan.
type groupBySpec struct {
	groupPos []int           // grouping column positions in the input
	argFns   []expr.Compiled // aggregate argument evaluators (nil for COUNT(*))
	aggs     []expr.Agg
	having   expr.Predicate  // over the inner schema
	outputs  []expr.Compiled // over the inner schema; nil = identity
	scalar   bool            // no grouping columns: always emit one row
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
}

// stateChunkGroups is how many groups' states one arena carve holds: with
// up to 32 state values a chunk still fits a slab, and a query of a few dozen
// groups takes a corner of the slab its output rows come from anyway.
const stateChunkGroups = 256

func groupBySpecOf(g *lplan.GroupBy) (*groupBySpec, error) {
	in := g.In.Schema()
	groupPos, err := colIndexes(in, g.GroupCols)
	if err != nil {
		return nil, err
	}
	spec := &groupBySpec{groupPos: groupPos, aggs: g.Aggs, scalar: len(g.GroupCols) == 0,
		argFns: make([]expr.Compiled, len(g.Aggs)), stateAt: make([]int, len(g.Aggs)), boxedAt: make([]int, len(g.Aggs))}
	for i, a := range g.Aggs {
		spec.stateAt[i], spec.boxedAt[i] = spec.nSlots, -1
		if n := a.Kind.StateSlots(); n > 0 {
			spec.nSlots += n
		} else {
			spec.boxedAt[i] = spec.nBoxed
			spec.nBoxed++
		}
		if a.Arg != nil {
			if spec.argFns[i], err = expr.Compile(a.Arg, in); err != nil {
				return nil, err
			}
		}
	}
	inner := g.InnerSchema()
	if spec.having, err = compilePreds(g.Having, inner); err != nil {
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

// dropGroups forgets every group, keeping the storage for the next ones.
func (c *groupByCtx) dropGroups() {
	c.groups, c.boxed = 0, c.boxed[:0]
}

var countStarArg = types.NewInt(1)

// add folds one input row into group g.
func (c *groupByCtx) add(g int, row types.Row) error {
	states := c.stateOf(g)
	for i, fn := range c.argFns {
		v := countStarArg
		if fn != nil {
			var err error
			if v, err = fn(row, c.params); err != nil {
				return err
			}
		}
		if b := c.boxedAt[i]; b >= 0 {
			c.boxed[g*c.nBoxed+b].Add(v)
		} else {
			expr.AggState(states[c.stateAt[i]:]).Add(c.aggs[i].Kind, v)
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
	keep, err := c.having(inner, c.params)
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
	spec, err := groupBySpecOf(g)
	if err != nil {
		return nil, err
	}
	in, err := compileOp(g.In)
	if err != nil {
		return nil, err
	}
	newCtx := func(e *Executor) *groupByCtx {
		return &groupByCtx{groupBySpec: spec, params: e.params, arena: rowArena{rec: &e.arenas}}
	}
	switch g.Method {
	case lplan.AggSort:
		sorted := sortedInput(in, g.GroupCols, sortKeys{cols: spec.groupPos})
		return &op{newIter: func(e *Executor) BatchIterator {
			ctx := newCtx(e)
			return &sortAggIter{ctx: ctx, target: e.batchSize, in: runReader{in: sorted(e), cols: spec.groupPos,
				fold: func(row types.Row) error { return ctx.add(0, row) }}}
		}}, nil
	case lplan.AggHash, lplan.AggUnset:
		return &op{newIter: func(e *Executor) BatchIterator {
			return &hashAggIter{exec: e, ctx: newCtx(e), in: e.build(in), groups: g.Groups}
		}}, nil
	default:
		return nil, fmt.Errorf("exec: unknown aggregation method %v", g.Method)
	}
}

// hashAggIter aggregates through an in-memory group table, partitioning the
// input to spill files when the table exceeds the budget. It consumes its
// input a batch at a time — hash the batch's key columns, then look each row
// up, start its group if new, and fold it in; the finished groups stream
// out in batches, in the order their first rows arrived.
type hashAggIter struct {
	exec *Executor
	ctx  *groupByCtx
	in   BatchIterator

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
	if it.ctx.scalar && it.tab.len() == 0 {
		it.ctx.newGroup()
		it.tab.insert(0, nil, nil)
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
		if err := it.consume(&spillIter{sp: p, target: it.exec.batchSize}, false); err != nil {
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
		b.hashes = hashKeys(b.Rows, ctx.groupPos, b.hashes)
		for i, row := range b.Rows {
			g := it.tab.lookup(b.hashes[i], row, ctx.groupPos)
			if g < 0 {
				if partition && it.parts != nil {
					// The partition comes from the key's byte encoding, not
					// from the table's hash: which rows share a spill file,
					// and so every page count, stays as it always was.
					it.keyBuf = row.AppendKey(it.keyBuf[:0], ctx.groupPos)
					if err := it.parts[partitionOf(it.keyBuf)].add(row); err != nil {
						return err
					}
					continue
				}
				ctx.newGroup()
				g = it.tab.insert(b.hashes[i], row, ctx.groupPos)
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
			if err := ctx.add(g, row); err != nil {
				return err
			}
		}
	}
}

// finishGroups appends the table's groups to the output and empties it.
func (it *hashAggIter) finishGroups() error {
	it.rows = slices.Grow(it.rows, it.tab.len())
	for g := 0; g < it.tab.len(); g++ {
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
// the context's group 0 as it reads them, and the group is finished before
// the next run starts. Without grouping columns the whole input is one run.
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
