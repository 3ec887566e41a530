// Package cost implements the IO cost model the optimization algorithms
// minimize.
//
// The paper requires only two properties of the cost model (Section 5): it
// charges IO, and it satisfies the principle of optimality. This model
// charges page IO against a buffer budget of PoolPages:
//
//   - sequential scans pay the base table's pages;
//   - hash joins are free beyond their inputs while the build side fits,
//     and pay one Grace partitioning round trip otherwise;
//   - block nested-loops joins pay one pass over the inner per outer block;
//   - merge joins pay external sorts for unsorted inputs;
//   - hash aggregation is free while the group table fits and pays a
//     partitioning round trip otherwise; sort aggregation pays a sort
//     unless the input already carries the grouping order.
//
// Intermediate results are pipelined (no IO) except at those spill and
// materialization points — which is exactly why early aggregation (smaller
// inputs downstream) and deferred aggregation (selective joins first) trade
// off, per Section 3 of the paper. An optional CPU weight per processed
// tuple supports the paper's remark that the algorithms adapt to a weighted
// CPU+IO combination.
package cost

import (
	"fmt"
	"math"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/stats"
	"aggview/internal/storage"
)

// Props are the method-independent properties of a plan's output: every
// physical alternative of one logical operator over the same inputs shares
// them.
type Props struct {
	Rows  float64         // estimated output cardinality
	Width int             // average tuple width in bytes
	Pages float64         // estimated output size in pages
	Rel   *stats.Relation // column statistics of the output
}

// Info carries the derived properties of a plan: its output's Props plus
// what the chosen physical methods decide.
type Info struct {
	Props
	Cost  float64        // cumulative cost of producing the output
	Order []schema.ColID // the output's order by lplan.Order; empty = none
}

// Model estimates plan costs. There is one set of formulas with two
// callers. Info walks an lplan tree bottom-up, memoizing per node pointer so
// a subtree shared between the trees a caller costs is derived once — the
// path EXPLAIN ANALYZE, the experiments, the outer-join chain and
// materialized-view candidates take. The optimizer's search never builds a
// tree per candidate, finalists included: it calls the node-free kernels
// below (JoinProps, JoinMethodCost, GroupProps, GroupMethodCost,
// ProjectInfo) on the Infos of its entries, deriving the logical half of a
// join once for all its physical methods, and builds a tree only for a plan
// it hands on, Seeding its nodes so Info on operators stacked above them
// starts from the memo's numbers. Info itself is implemented on the same
// kernels.
//
// All column statistics of a Model live in one arena and share one column
// index.
type Model struct {
	PoolPages int     // buffer budget M in pages
	CPUWeight float64 // cost per processed tuple, in page-IO units (0 = IO only)

	stats *stats.Arena
	cache map[lplan.Node]*Info
}

// NewModel creates a model with the given buffer budget. A non-positive
// budget uses storage.DefaultPoolPages.
func NewModel(poolPages int, cpuWeight float64) *Model {
	return NewModelIn(stats.NewArena(), poolPages, cpuWeight)
}

// NewModelIn is NewModel with the statistics carved from an arena the
// caller owns. Resetting the arena kills the model and every Info it
// produced: copy (and Clone the Rel of) what must survive first.
func NewModelIn(a *stats.Arena, poolPages int, cpuWeight float64) *Model {
	if poolPages <= 0 {
		poolPages = storage.DefaultPoolPages
	}
	return &Model{PoolPages: poolPages, CPUWeight: cpuWeight, stats: a, cache: map[lplan.Node]*Info{}}
}

// Cols returns the column index the model's statistics are laid out by.
func (m *Model) Cols() *stats.ColIndex { return m.stats.Cols }

// Info computes (or returns the memoized) properties of n.
func (m *Model) Info(n lplan.Node) (*Info, error) {
	if info, ok := m.cache[n]; ok {
		return info, nil
	}
	info, err := m.compute(n)
	if err != nil {
		return nil, err
	}
	m.cache[n] = info
	return info, nil
}

// Seed records properties derived through the kernels for a node the caller
// has just materialized, so Info(n) returns them instead of re-deriving the
// subtree.
func (m *Model) Seed(n lplan.Node, info *Info) { m.cache[n] = info }

func (m *Model) compute(n lplan.Node) (*Info, error) {
	switch t := n.(type) {
	case *lplan.Scan:
		return m.scanInfo(t)
	case *lplan.Join:
		return m.joinInfo(t)
	case *lplan.GroupBy:
		return m.groupByInfo(t)
	case *lplan.Project:
		return m.projectInfo(t)
	case *lplan.Filter:
		return m.filterInfo(t)
	case *lplan.Sort:
		return m.sortInfo(t)
	default:
		return nil, fmt.Errorf("cost: unknown node type %T", n)
	}
}

func pagesOf(rows float64, width int) float64 {
	if rows <= 0 {
		return 0
	}
	return math.Ceil(rows * float64(width) / storage.PageSize)
}

func (m *Model) cpu(tuples float64) float64 { return m.CPUWeight * tuples }

func (m *Model) scanInfo(s *lplan.Scan) (*Info, error) {
	tbl := s.Table
	baseRows := float64(tbl.Stats.Rows)
	basePages := float64(tbl.Stats.Pages)
	if tbl.Stats.Rows == 0 && tbl.File.Rows() > 0 {
		// Unanalyzed table: fall back to physical counts.
		baseRows = float64(tbl.File.Rows())
		basePages = float64(tbl.File.Pages())
	}

	rel := m.stats.NewRelation(baseRows)
	for _, col := range tbl.Schema {
		cs, ok := tbl.ColStat(col.ID.Name)
		if ok && cs.NDV > 0 {
			rel.Set(schema.ColID{Rel: s.Alias, Name: col.ID.Name},
				stats.ColInfo{NDV: float64(cs.NDV), Min: cs.Min, Max: cs.Max})
		}
	}
	if s.WithTID {
		rel.Set(schema.ColID{Rel: s.Alias, Name: lplan.TIDColumn}, stats.ColInfo{NDV: math.Max(baseRows, 1)})
	}

	sel := 1.0
	for _, p := range s.Filter {
		sel *= stats.Selectivity(p, rel)
	}
	rel.Rows = baseRows * sel
	rel.ClampNDVs()

	width := s.Schema().AvgWidth()
	return &Info{
		Props: Props{Rows: rel.Rows, Width: width, Pages: pagesOf(rel.Rows, width), Rel: rel},
		Cost:  basePages + m.cpu(baseRows),
	}, nil
}

// JoinPred is one join conjunct. For a bare column equality, L and R are
// the ordinals (in the model's column index) of its two columns, in the
// conjunct's own order, and Key says which of them the join's left input
// outputs.
type JoinPred struct {
	E    expr.Expr
	Equi bool
	L, R int
	Key  KeySide
}

// KeySide names the column of a bare equality that the join's left input
// outputs, which makes the equality a merge key.
type KeySide uint8

// Key sides.
const (
	NoKey KeySide = iota // neither column: not a merge key
	KeyL                 // the conjunct's left-hand column
	KeyR                 // the conjunct's right-hand column
)

// JoinSpec is what the join formulas read off a join besides its inputs'
// properties and its physical method. One spec serves every candidate that
// joins the same two relation sets under the same conjuncts.
type JoinSpec struct {
	Type  lplan.JoinType
	Preds []JoinPred
	// LCols and RCols are the equi-join columns of the left and the right
	// input, pairwise.
	LCols, RCols []schema.ColID
	// Inner is the right input when it is a base-table scan: block nested
	// loops rescans it in place.
	Inner *lplan.Scan
}

// NewJoinSpec describes the join of a left input with inner under
// annotated conjuncts, which the spec keeps. keys is scratch of length
// 2·len(preds) that LCols and RCols are carved from, so a caller that costs
// many joins can hand in memory it recycles.
func NewJoinSpec(typ lplan.JoinType, preds []JoinPred, inner lplan.Node, keys []schema.ColID) JoinSpec {
	n := len(preds)
	spec := JoinSpec{Type: typ, Preds: preds, LCols: keys[:0:n], RCols: keys[n : n : 2*n]}
	for i := range preds {
		if preds[i].Key == NoKey {
			continue
		}
		lc, rc, _ := expr.EquiJoin(preds[i].E)
		if preds[i].Key == KeyR {
			lc, rc = rc, lc
		}
		spec.LCols, spec.RCols = append(spec.LCols, lc), append(spec.RCols, rc)
	}
	spec.Inner, _ = inner.(*lplan.Scan)
	return spec
}

func (m *Model) joinInfo(j *lplan.Join) (*Info, error) {
	l, err := m.Info(j.L)
	if err != nil {
		return nil, err
	}
	r, err := m.Info(j.R)
	if err != nil {
		return nil, err
	}
	preds := make([]JoinPred, len(j.Preds))
	left, right := j.L.Schema(), j.R.Schema()
	for i, p := range j.Preds {
		preds[i].E = p
		lc, rc, ok := expr.EquiJoin(p)
		if !ok {
			continue
		}
		preds[i].Equi, preds[i].L, preds[i].R = true, m.stats.Cols.Ord(lc), m.stats.Cols.Ord(rc)
		if left.Contains(lc) && right.Contains(rc) {
			preds[i].Key = KeyL
		} else if left.Contains(rc) && right.Contains(lc) {
			preds[i].Key = KeyR
		}
	}
	spec := NewJoinSpec(j.Type, preds, j.R, make([]schema.ColID, 2*len(preds)))
	props := m.JoinProps(l, r, &spec, j.Schema().AvgWidth())
	extra, order, err := m.JoinMethodCost(j.Method, &spec, l, r)
	if err != nil {
		return nil, err
	}
	// The kernel's order is the unprojected join's; j.Proj may cut it.
	return &Info{Props: props, Cost: m.JoinCost(l, r, props.Rows, extra), Order: lplan.JoinOrder(j.Method, order, j.Proj)}, nil
}

// JoinProps derives the logical properties of l ⋈ r: cardinality from the
// conjuncts' selectivities, the merged column statistics with equi-joined
// columns converged, and the page count at the given output width.
func (m *Model) JoinProps(l, r *Info, spec *JoinSpec, width int) Props {
	sel := 1.0
	for i := range spec.Preds {
		if p := &spec.Preds[i]; p.Equi {
			sel *= stats.EquiJoinSelectivity(l.Rel, r.Rel, p.L, p.R)
		} else {
			sel *= stats.JoinSelectivity(p.E, l.Rel, r.Rel)
		}
	}
	rows := l.Rows * r.Rows * sel
	// Outer joins never shrink below the preserved side: every preserved
	// row appears at least once (matched or NULL-padded).
	switch spec.Type {
	case lplan.JoinLeft:
		rows = math.Max(rows, l.Rows)
	case lplan.JoinFull:
		matched := rows
		rows = math.Max(matched, l.Rows) + math.Max(0, r.Rows-matched)
	}

	rel := m.stats.MergeForJoin(l.Rel, r.Rel)
	rel.Rows = rows
	// Equi-joined columns converge to the smaller NDV.
	for i := range spec.Preds {
		if p := &spec.Preds[i]; p.Equi {
			ndv := math.Min(rel.NDVAt(p.L), rel.NDVAt(p.R))
			rel.SetNDVAt(p.L, ndv)
			rel.SetNDVAt(p.R, ndv)
		}
	}
	rel.ClampNDVs()
	return Props{Rows: rows, Width: width, Pages: pagesOf(rows, width), Rel: rel}
}

// JoinCost is the cumulative cost of a join given the method's extra IO.
func (m *Model) JoinCost(l, r *Info, rows, extra float64) float64 {
	return l.Cost + r.Cost + extra + m.cpu(l.Rows+r.Rows+rows)
}

// JoinMethodCost returns the method-specific IO beyond producing the inputs
// and the output's sort order (lplan.JoinOrder). A hash join builds on r and
// its charge reads nothing of spec, so a caller weighing the other build
// side of an inner join passes the inputs swapped; the search does, and
// emits the plan with the cheaper build input as R.
func (m *Model) JoinMethodCost(method lplan.JoinMethod, spec *JoinSpec, l, r *Info) (float64, []schema.ColID, error) {
	mPages := float64(m.PoolPages)
	switch method {
	case lplan.JoinHash, lplan.JoinUnset:
		// Build on r. Pipelined while the build fits; otherwise one Grace
		// round trip over both inputs.
		if r.Pages <= mPages-2 {
			return 0, nil, nil
		}
		return 2 * (l.Pages + r.Pages), nil, nil

	case lplan.JoinBlockNL:
		blocks := math.Max(math.Ceil(l.Pages/math.Max(mPages-2, 1)), 1)
		extra := blocks * r.Pages
		if spec.Inner == nil {
			// Non-scan inner must be materialized once before rescans.
			extra += r.Pages
		}
		return extra, nil, nil

	case lplan.JoinMerge:
		if len(spec.LCols) == 0 {
			return 0, nil, fmt.Errorf("cost: merge join without equi-join predicate")
		}
		var extra float64
		if !lplan.Covers(l.Order, spec.LCols) {
			extra += m.SortCost(l.Pages)
		}
		if !lplan.Covers(r.Order, spec.RCols) {
			extra += m.SortCost(r.Pages)
		}
		return extra, lplan.JoinOrder(method, spec.LCols, nil), nil

	default:
		return 0, nil, fmt.Errorf("cost: unknown join method %v", method)
	}
}

// SortCost returns the IO of externally sorting the given number of pages
// with the model's buffer budget: zero when the input fits in memory,
// otherwise a write+read round trip per merge pass.
func (m *Model) SortCost(pages float64) float64 {
	mPages := float64(m.PoolPages)
	if pages <= mPages {
		return 0
	}
	runs := math.Ceil(pages / mPages)
	fanIn := math.Max(mPages-1, 2)
	passes := math.Ceil(math.Log(runs) / math.Log(fanIn))
	if passes < 1 {
		passes = 1
	}
	return 2 * pages * passes
}

func (m *Model) groupByInfo(g *lplan.GroupBy) (*Info, error) {
	in, err := m.Info(g.In)
	if err != nil {
		return nil, err
	}
	width := g.Schema().AvgWidth()
	props, groups := m.GroupProps(in, g, width)
	extra, order, err := m.GroupMethodCost(g, in, groups, width)
	if err != nil {
		return nil, err
	}
	return &Info{Props: props, Cost: m.GroupCost(in, props.Rows, extra), Order: order}, nil
}

// GroupProps derives the logical properties of grouping an input as g
// describes — g.In and g.Method are not read, so a GroupBy without an input
// serves as the description — plus the pre-HAVING group count the hash
// method's spill test needs. width is the output tuple width.
func (m *Model) GroupProps(in *Info, g *lplan.GroupBy, width int) (Props, float64) {
	groups := stats.DistinctGroups(in.Rel, g.GroupCols)

	// Build the inner relation (grouping cols + agg outputs) for Having.
	inner := m.stats.NewRelation(groups)
	for _, gc := range g.GroupCols {
		o := inner.Copy(gc, in.Rel, gc)
		if inner.NDVAt(o) > groups {
			inner.SetNDVAt(o, math.Max(groups, 1))
		}
	}
	for _, a := range g.Aggs {
		inner.Set(a.Out, stats.ColInfo{NDV: math.Max(groups, 1)})
	}

	sel := 1.0
	for _, h := range g.Having {
		sel *= stats.Selectivity(h, inner)
	}
	rows := groups * sel
	inner.Rows = rows
	inner.ClampNDVs()

	// Outputs: rename/copy stats for bare column references.
	rel := inner
	if len(g.Outputs) > 0 {
		rel = m.projectStats(inner, rows, g.Outputs)
	}
	return Props{Rows: rows, Width: width, Pages: pagesOf(rows, width), Rel: rel}, groups
}

// projectStats summarizes the output of computing items over in: a bare
// column reference keeps its statistics under the new name, any other
// expression counts as distinct per row.
func (m *Model) projectStats(in *stats.Relation, rows float64, items []lplan.NamedExpr) *stats.Relation {
	rel := m.stats.NewRelation(rows)
	for _, ne := range items {
		if cr, ok := ne.E.(*expr.ColRef); ok {
			rel.Copy(ne.As, in, cr.ID)
		} else {
			rel.Set(ne.As, stats.ColInfo{NDV: math.Max(rows, 1)})
		}
	}
	return rel
}

// GroupCost is the cumulative cost of a group-by given the method's extra
// IO.
func (m *Model) GroupCost(in *Info, rows, extra float64) float64 {
	return in.Cost + extra + m.cpu(in.Rows+rows)
}

// GroupMethodCost returns the IO g.Method adds beyond producing the input,
// and the output's sort order (lplan.GroupOrder); groups and width are
// GroupProps' figures.
func (m *Model) GroupMethodCost(g *lplan.GroupBy, in *Info, groups float64, width int) (float64, []schema.ColID, error) {
	switch g.Method {
	case lplan.AggSort:
		var extra float64
		if !lplan.Covers(in.Order, g.GroupCols) {
			extra = m.SortCost(in.Pages)
		}
		return extra, lplan.GroupOrder(g.Method, g.GroupCols, g.Outputs), nil
	case lplan.AggHash, lplan.AggUnset:
		if tablePages := pagesOf(groups, width); tablePages > float64(m.PoolPages) {
			return 2 * in.Pages, nil, nil
		}
		return 0, nil, nil
	default:
		return 0, nil, fmt.Errorf("cost: unknown aggregation method %v", g.Method)
	}
}

func (m *Model) projectInfo(p *lplan.Project) (*Info, error) {
	in, err := m.Info(p.In)
	if err != nil {
		return nil, err
	}
	info := m.ProjectInfo(in, p.Items, p.Schema().AvgWidth())
	return &info, nil
}

// ProjectInfo derives the properties of computing items over an input,
// width being the output tuple width. A Project has no order (lplan.Order).
func (m *Model) ProjectInfo(in *Info, items []lplan.NamedExpr, width int) Info {
	return Info{
		Props: Props{Rows: in.Rows, Width: width, Pages: pagesOf(in.Rows, width), Rel: m.projectStats(in.Rel, in.Rows, items)},
		Cost:  in.Cost + m.cpu(in.Rows),
	}
}

func (m *Model) filterInfo(f *lplan.Filter) (*Info, error) {
	in, err := m.Info(f.In)
	if err != nil {
		return nil, err
	}
	sel := 1.0
	for _, p := range f.Preds {
		sel *= stats.Selectivity(p, in.Rel)
	}
	rel := in.Rel.Clone()
	rel.Rows = in.Rows * sel
	rel.ClampNDVs()
	return &Info{
		Props: Props{Rows: rel.Rows, Width: in.Width, Pages: pagesOf(rel.Rows, in.Width), Rel: rel},
		Cost:  in.Cost + m.cpu(in.Rows),
		Order: lplan.Order(f),
	}, nil
}

func (m *Model) sortInfo(s *lplan.Sort) (*Info, error) {
	in, err := m.Info(s.In)
	if err != nil {
		return nil, err
	}
	info := &Info{Props: in.Props, Cost: in.Cost + m.cpu(in.Rows), Order: lplan.Order(s)}
	if !s.Ascending() || !lplan.Covers(in.Order, s.By) {
		info.Cost += m.SortCost(in.Pages)
	}
	return info, nil
}
