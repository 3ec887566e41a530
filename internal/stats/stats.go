// Package stats implements cardinality and selectivity estimation.
//
// The formulas are the classical System-R family the paper's optimizers
// assume: uniform-value selectivities (1/NDV for equality, min/max
// interpolation for ranges), 1/max(NDV) for equi-joins, and the
// Cardenas/Yao formula for the number of distinct groups produced by a
// group-by. They operate on a Relation summary (row count plus per-column
// statistics) that the cost model propagates bottom-up through a plan.
package stats

import (
	"math"
	"slices"

	"aggview/internal/arena"
	"aggview/internal/expr"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// Default selectivities for predicates the estimator cannot analyse,
// mirroring Selinger's catalog-free guesses.
const (
	DefaultEqSel    = 0.1
	DefaultRangeSel = 1.0 / 3.0
	DefaultSel      = 0.25
)

// ColInfo summarizes one column.
type ColInfo struct {
	NDV      float64
	Min, Max types.Value // NULL when unknown
}

// ColIndex assigns dense ordinals to the column identities one optimization
// meets. Every Relation of a cost model shares the model's index, so a
// column's statistics sit at the same slice position in all of them and a
// join summary is a slice merge rather than a map build. The set is
// effectively closed per query — the optimizer enumerates up front every
// column a plan can carry — and grows on demand for the rest (tuple ids,
// partial-aggregate outputs, hand-built trees).
type ColIndex struct {
	ord map[schema.ColID]int
	// ranges holds every value range a summary of this index has recorded;
	// a slot refers to its column's range by position, so a summary holds no
	// pointer and merging two is a plain copy.
	ranges [][2]types.Value
}

// Ord returns the column's ordinal, registering it on first sight.
func (x *ColIndex) Ord(id schema.ColID) int {
	o, ok := x.ord[id]
	if !ok {
		o = len(x.ord)
		x.ord[id] = o
	}
	return o
}

// Len returns the number of registered columns.
func (x *ColIndex) Len() int { return len(x.ord) }

// lookup returns the column's ordinal without registering it, -1 when the
// index has never seen the column (no summary can carry statistics for it).
func (x *ColIndex) lookup(id schema.ColID) int {
	if o, ok := x.ord[id]; ok {
		return o
	}
	return -1
}

// colStat is one slot of a Relation: the column's distinct count and its
// value range. Ranges never change after the scan that read them from the
// catalog, so summaries share them by ordinal into the column index's table
// and copy 16 pointer-free bytes per column.
type colStat struct {
	ndv   float64
	rng   int32 // 1 + the range's position in ColIndex.ranges; 0 when unknown
	known bool
}

// info expands a slot of a summary laid out by x.
func (x *ColIndex) info(c colStat) ColInfo {
	ci := ColInfo{NDV: c.ndv}
	if c.rng > 0 {
		b := &x.ranges[c.rng-1]
		ci.Min, ci.Max = b[0], b[1]
	}
	return ci
}

// Relation summarizes an intermediate result for estimation: a row count
// and per-column statistics held in a slice indexed by column ordinal.
type Relation struct {
	Rows float64
	idx  *ColIndex
	cols []colStat // may be shorter than idx.Len(): later ordinals are unknown
}

// Arena allocates the Relations of one optimization. Their column slices
// are carved from chunks that Reset makes available to the next query.
type Arena struct {
	// Cols is the column index every Relation of this arena shares.
	Cols  *ColIndex
	rels  arena.Slab[Relation]
	stats arena.Slab[colStat]
}

// NewArena returns an empty arena with a fresh column index.
func NewArena() *Arena {
	return &Arena{Cols: &ColIndex{ord: map[schema.ColID]int{}}}
}

// Reset empties the arena for another optimization, keeping its chunks. No
// Relation it produced may be used afterwards; Clone what must outlive it
// first. The column index is replaced, not cleared: clones keep the old one,
// and with it the value ranges they refer to.
func (a *Arena) Reset() {
	a.rels.Reset()
	a.stats.Reset()
	a.Cols = &ColIndex{ord: map[schema.ColID]int{}}
}

// Bytes returns the memory the arena's chunks hold.
func (a *Arena) Bytes() int { return a.rels.Bytes() + a.stats.Bytes() }

// NewRelation creates an empty summary.
func (a *Arena) NewRelation(rows float64) *Relation {
	r := a.rels.New()
	r.Rows, r.idx, r.cols = rows, a.Cols, a.stats.Alloc(a.Cols.Len())
	return r
}

// MergeForJoin builds the cross-product summary of two inputs: every
// column of either side, the right side's entry winning a clash.
func (a *Arena) MergeForJoin(l, r *Relation) *Relation {
	out := a.rels.New()
	out.Rows, out.idx, out.cols = l.Rows*r.Rows, a.Cols, a.stats.Alloc(max(len(l.cols), len(r.cols)))
	copy(out.cols, l.cols)
	for i, c := range r.cols {
		if c.known {
			out.cols[i] = c
		}
	}
	return out
}

// Clone deep-copies the summary onto the heap, detached from any arena (it
// keeps the column index, which holds its value ranges).
func (r *Relation) Clone() *Relation {
	return &Relation{Rows: r.Rows, idx: r.idx, cols: slices.Clone(r.cols)}
}

// find returns the column's slot when the summary carries statistics for it.
func (r *Relation) find(id schema.ColID) (colStat, bool) {
	if o := r.idx.lookup(id); r.HasAt(o) {
		return r.cols[o], true
	}
	return colStat{}, false
}

// HasAt is Has by column ordinal; a negative ordinal is an unknown column.
func (r *Relation) HasAt(ord int) bool { return uint(ord) < uint(len(r.cols)) && r.cols[ord].known }

// Col returns the column summary, defaulting NDV to the row count (every
// value distinct) when the column is unknown.
func (r *Relation) Col(id schema.ColID) ColInfo {
	if c, ok := r.find(id); ok {
		return r.idx.info(c)
	}
	return ColInfo{NDV: math.Max(r.Rows, 1)}
}

// NDVAt returns the distinct count of the column with the given ordinal,
// defaulted like Col.
func (r *Relation) NDVAt(ord int) float64 {
	if r.HasAt(ord) {
		return r.cols[ord].ndv
	}
	return math.Max(r.Rows, 1)
}

// Set records a column's statistics.
func (r *Relation) Set(id schema.ColID, ci ColInfo) {
	c := colStat{ndv: ci.NDV, known: true}
	if !ci.Min.IsNull() || !ci.Max.IsNull() {
		r.idx.ranges = append(r.idx.ranges, [2]types.Value{ci.Min, ci.Max})
		c.rng = int32(len(r.idx.ranges))
	}
	*r.slot(r.idx.Ord(id)) = c
}

// SetNDVAt records a distinct count by column ordinal, keeping the value
// range the column already has.
func (r *Relation) SetNDVAt(ord int, ndv float64) {
	c := r.slot(ord)
	c.ndv, c.known = ndv, true
}

// Copy gives column `as` the statistics `from` reads for column id
// (defaulted when unknown), referring to the same value range, and returns
// the ordinal of `as`. Both summaries must share one column index.
func (r *Relation) Copy(as schema.ColID, from *Relation, id schema.ColID) int {
	c, ok := from.find(id)
	if !ok {
		c = colStat{ndv: math.Max(from.Rows, 1), known: true}
	}
	o := r.idx.Ord(as)
	*r.slot(o) = c
	return o
}

// slot returns the column's slot, growing the slice (onto the heap) when
// the ordinal was registered after the summary was created.
func (r *Relation) slot(ord int) *colStat {
	if ord >= len(r.cols) {
		r.cols = append(r.cols, make([]colStat, r.idx.Len()-len(r.cols))...)
	}
	return &r.cols[ord]
}

// ClampNDVs caps every column's NDV at the current row count; call after
// reducing Rows.
func (r *Relation) ClampNDVs() {
	for i := range r.cols {
		if c := &r.cols[i]; c.known && c.ndv > r.Rows {
			c.ndv = math.Max(r.Rows, 1)
		}
	}
}

// Selectivity estimates the fraction of rows satisfying the predicate.
func Selectivity(e expr.Expr, r *Relation) float64 { return selectivity(e, source{l: r}) }

// source is what a predicate's columns are resolved against: one summary,
// or (r set) the cross product of two, read in place — the right side wins
// a clash, as in MergeForJoin.
type source struct{ l, r *Relation }

func (s source) Col(id schema.ColID) ColInfo {
	if s.r == nil {
		return s.l.Col(id)
	}
	if c, ok := s.r.find(id); ok {
		return s.r.idx.info(c)
	}
	if c, ok := s.l.find(id); ok {
		return s.l.idx.info(c)
	}
	return ColInfo{NDV: math.Max(s.l.Rows*s.r.Rows, 1)}
}

func selectivity(e expr.Expr, r source) float64 {
	switch p := e.(type) {
	case *expr.Cmp:
		return cmpSelectivity(p, r)
	case *expr.Logic:
		if p.IsOr {
			// Independence: 1 - prod(1 - s_i).
			keep := 1.0
			for _, t := range p.Terms {
				keep *= 1 - selectivity(t, r)
			}
			return clamp01(1 - keep)
		}
		s := 1.0
		for _, t := range p.Terms {
			s *= selectivity(t, r)
		}
		return s
	case *expr.Not:
		return clamp01(1 - selectivity(p.E, r))
	case *expr.IsNull:
		// Stats track no null fraction; Selinger-style flat guess, a bit
		// below the generic default since most columns are mostly non-NULL.
		if p.Negate {
			return 1 - DefaultEqSel
		}
		return DefaultEqSel
	case *expr.Const:
		if p.Val.Bool() {
			return 1
		}
		return 0
	default:
		return DefaultSel
	}
}

func cmpSelectivity(p *expr.Cmp, r source) float64 {
	lc, lIsCol := p.L.(*expr.ColRef)
	rc, rIsCol := p.R.(*expr.ColRef)
	lk, lIsConst := p.L.(*expr.Const)
	rk, rIsConst := p.R.(*expr.Const)

	switch {
	case lIsCol && rIsConst:
		return colConstSelectivity(p.Op, r.Col(lc.ID), rk.Val)
	case lIsConst && rIsCol:
		return colConstSelectivity(p.Op.Flip(), r.Col(rc.ID), lk.Val)
	case lIsCol && rIsCol:
		li, ri := r.Col(lc.ID), r.Col(rc.ID)
		switch p.Op {
		case expr.EQ:
			return 1 / math.Max(math.Max(li.NDV, ri.NDV), 1)
		case expr.NE:
			return clamp01(1 - 1/math.Max(math.Max(li.NDV, ri.NDV), 1))
		default:
			return DefaultRangeSel
		}
	default:
		switch p.Op {
		case expr.EQ:
			return DefaultEqSel
		case expr.NE:
			return 1 - DefaultEqSel
		default:
			return DefaultRangeSel
		}
	}
}

func colConstSelectivity(op expr.CmpOp, ci ColInfo, v types.Value) float64 {
	switch op {
	case expr.EQ:
		return 1 / math.Max(ci.NDV, 1)
	case expr.NE:
		return clamp01(1 - 1/math.Max(ci.NDV, 1))
	}
	// Range predicate: interpolate when the column range is known & numeric.
	if ci.Min.IsNull() || ci.Max.IsNull() || !ci.Min.K.Numeric() || !v.K.Numeric() {
		return DefaultRangeSel
	}
	lo, hi, x := ci.Min.Float(), ci.Max.Float(), v.Float()
	if hi <= lo {
		// Single-valued column.
		switch op {
		case expr.LT:
			if lo < x {
				return 1
			}
			return 0
		case expr.LE:
			if lo <= x {
				return 1
			}
			return 0
		case expr.GT:
			if lo > x {
				return 1
			}
			return 0
		case expr.GE:
			if lo >= x {
				return 1
			}
			return 0
		}
		return DefaultRangeSel
	}
	frac := (x - lo) / (hi - lo)
	switch op {
	case expr.LT, expr.LE:
		return clamp01(frac)
	case expr.GT, expr.GE:
		return clamp01(1 - frac)
	default:
		return DefaultRangeSel
	}
}

// JoinSelectivity estimates the selectivity of a conjunct connecting two
// relations, given both sides' summaries. Equi-joins use 1/max(NDV). The
// summaries must share one column index (one arena); it is only read.
func JoinSelectivity(e expr.Expr, l, r *Relation) float64 {
	if l.idx != r.idx {
		panic("stats: JoinSelectivity over summaries of different arenas")
	}
	if lc, rc, ok := expr.EquiJoin(e); ok {
		return EquiJoinSelectivity(l, r, l.idx.lookup(lc), l.idx.lookup(rc))
	}
	// Single-relation analysis over the inputs' cross product.
	return selectivity(e, source{l, r})
}

// EquiJoinSelectivity is JoinSelectivity for a bare equality between the
// columns with ordinals lc and rc, in the conjunct's own order: lc is looked
// up on the left first, rc on the right first, and a column neither side
// knows counts as single-valued.
func EquiJoinSelectivity(l, r *Relation, lc, rc int) float64 {
	var lNDV, rNDV float64 = 1, 1
	if l.HasAt(lc) {
		lNDV = l.cols[lc].ndv
	} else if r.HasAt(lc) {
		lNDV = r.cols[lc].ndv
	}
	if r.HasAt(rc) {
		rNDV = r.cols[rc].ndv
	} else if l.HasAt(rc) {
		rNDV = l.cols[rc].ndv
	}
	return 1 / math.Max(math.Max(lNDV, rNDV), 1)
}

// DistinctGroups applies the Cardenas formula: the expected number of
// distinct groups when n rows fall uniformly into d possible group keys:
//
//	E[groups] = d * (1 - (1 - 1/d)^n)
//
// d is the product of the grouping columns' NDVs, capped at n.
func DistinctGroups(r *Relation, groupCols []schema.ColID) float64 {
	n := r.Rows
	if n <= 0 {
		return 0
	}
	if len(groupCols) == 0 {
		return 1
	}
	d := 1.0
	for _, c := range groupCols {
		d *= math.Max(r.Col(c).NDV, 1)
		if d > n {
			d = n
			break
		}
	}
	if d >= n {
		return n
	}
	// Cardenas; guard the power for huge n via the exp/log form.
	return d * (1 - math.Exp(float64(n)*math.Log1p(-1/d)))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
