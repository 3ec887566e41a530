package expr

import (
	"fmt"

	"aggview/internal/schema"
	"aggview/internal/types"
)

// Filter is a conjunction of predicates compiled to narrow a selection
// vector: the positions, within a batch of rows, of the rows still in the
// running. Select runs one conjunct at a time over the whole vector, so
// each conjunct sees exactly the rows the earlier ones kept, as a
// short-circuiting AND would. A comparison of a column with a literal, a
// `?` or another column runs as an inline loop over the vector; any other
// conjunct runs its compiled Predicate on each selected row.
type Filter struct {
	conj []conjunct
}

// conjShape is how a conjunct runs.
type conjShape uint8

const (
	colConst conjShape = iota // col ⊙ literal
	colParam                  // col ⊙ ?
	colCol                    // col ⊙ col
	rowPred                   // anything else: pred on each selected row
)

type conjunct struct {
	shape conjShape
	mask  uint8       // the three-way outcomes op accepts (CmpOp.outcomes)
	l, r  int         // column positions; r is the `?` ordinal for colParam
	val   types.Value // colConst: the literal
	param *Param      // colParam: the placeholder, for the unbound error
	pred  Predicate   // rowPred
}

// CompileFilter compiles the conjunction of preds against s. It fails as
// CompilePredicate would on the first conjunct that does not compile. A
// comparison with its column on the right is flipped to put it on the left.
func CompileFilter(preds []Expr, s schema.Schema) (*Filter, error) {
	f := &Filter{conj: make([]conjunct, len(preds))}
	for i, p := range preds {
		k, ok, err := kernelOf(p, s)
		if err == nil && !ok {
			k.shape = rowPred
			k.pred, err = CompilePredicate(p, s)
		}
		if err != nil {
			return nil, err
		}
		f.conj[i] = k
	}
	return f, nil
}

// kernelOf returns the conjunct p compiles to when it compares a column
// with a literal, a `?` or a column; ok is false for any other p. Columns
// resolve, and fail to, in the order Compile resolves them.
func kernelOf(p Expr, s schema.Schema) (k conjunct, ok bool, err error) {
	c, ok := p.(*Cmp)
	if !ok {
		return k, false, nil
	}
	op, l, r := c.Op, c.L, c.R
	if _, lCol := l.(*ColRef); !lCol {
		op, l, r = op.Flip(), r, l
	}
	lc, ok := l.(*ColRef)
	if !ok {
		return k, false, nil
	}
	k.mask = op.outcomes()
	switch r := r.(type) {
	case *Const:
		k.shape, k.val = colConst, r.Val
	case *Param:
		k.shape, k.r, k.param = colParam, r.Idx, r
	case *ColRef:
		k.shape = colCol
		if k.l, err = lc.position(s); err == nil {
			k.r, err = r.position(s)
		}
		return k, true, err
	default:
		return k, false, nil
	}
	k.l, err = lc.position(s)
	return k, true, err
}

// Select narrows sel, positions in the column vectors cols, to the rows on
// which every conjunct is TRUE, and returns it; it overwrites sel's
// elements in place. A conjunct never runs once no row is left, so, as
// with row-at-a-time evaluation, an unbound `?` fails only when some row
// reaches it. A conjunct of another shape runs its Predicate on each
// selected row, gathered from the vectors.
func (f *Filter) Select(cols []types.Vector, sel []int32, params []types.Value) ([]int32, error) {
	var row types.Row
	blk := types.Block{Cols: cols}
	for i := range f.conj {
		if len(sel) == 0 {
			break
		}
		c := &f.conj[i]
		switch c.shape {
		case colConst:
			sel = selectValue(&cols[c.l], sel, &c.val, c.mask)
		case colParam:
			if c.r >= len(params) {
				return sel[:0], unbound(c.param, params)
			}
			sel = selectValue(&cols[c.l], sel, &params[c.r], c.mask)
		case colCol:
			a, b := &cols[c.l], &cols[c.r]
			n := 0
			for _, k := range sel {
				d, ok := 0, true
				if a.K == types.KindInt && b.K == types.KindInt && !a.IsNull(int(k)) && !b.IsNull(int(k)) {
					d = cmpOrdered(a.Ints[k], b.Ints[k])
				} else {
					x, y := a.Value(int(k)), b.Value(int(k))
					d, ok = compare3(&x, &y)
				}
				if ok && c.mask>>uint(d+1)&1 != 0 {
					sel[n] = k
					n++
				}
			}
			sel = sel[:n]
		default:
			n := 0
			for _, k := range sel {
				row = blk.Row(int(k), row)
				ok, err := c.pred(row, params)
				if err != nil {
					return sel[:0], err
				}
				if ok {
					sel[n] = k
					n++
				}
			}
			sel = sel[:n]
		}
	}
	return sel, nil
}

// selectValue keeps the rows of sel whose value in col compares with v as
// mask accepts. A NULL on either side is UNKNOWN and never selected. An
// INT or FLOAT column without NULLs compares with a v of its own kind
// straight from its typed slice.
func selectValue(col *types.Vector, sel []int32, v *types.Value, mask uint8) []int32 {
	n := 0
	switch {
	case v.K == types.KindNull:
		return sel[:0]
	case v.K == types.KindInt && col.K == types.KindInt && col.Nulls == nil:
		for _, k := range sel {
			if mask>>uint(cmpOrdered(col.Ints[k], v.I)+1)&1 != 0 {
				sel[n] = k
				n++
			}
		}
	case v.K == types.KindFloat && col.K == types.KindFloat && col.Nulls == nil:
		f := v.F()
		for _, k := range sel {
			if mask>>uint(cmpOrdered(col.Floats[k], f)+1)&1 != 0 {
				sel[n] = k
				n++
			}
		}
	default:
		for _, k := range sel {
			a := col.Value(int(k))
			if d, ok := compare3(&a, v); ok && mask>>uint(d+1)&1 != 0 {
				sel[n] = k
				n++
			}
		}
	}
	return sel[:n]
}

// outcomes is the set of types.Compare results o accepts, bit c+1 for
// result c: the table eval applies.
func (o CmpOp) outcomes() uint8 {
	const lt, eq, gt = 1, 2, 4
	switch o {
	case EQ:
		return eq
	case NE:
		return lt | gt
	case LT:
		return lt
	case LE:
		return lt | eq
	case GT:
		return gt
	case GE:
		return eq | gt
	default:
		return 0
	}
}

// compare3 is types.Compare(*a, *b), with ok=false when either is NULL:
// INT pairs compare as int64 and other numeric pairs as float64, as Compare
// does, and every other pair through Compare. The selection loops decide
// the pairs of their own common kind before they call it.
func compare3(a, b *types.Value) (c int, ok bool) {
	switch {
	case a.K == types.KindInt && b.K == types.KindInt:
		return cmpOrdered(a.I, b.I), true
	case a.K == types.KindNull || b.K == types.KindNull:
		return 0, false
	case a.K.Numeric() && b.K.Numeric():
		return cmpOrdered(a.Float(), b.Float()), true
	}
	return types.Compare(*a, *b), true
}

// cmpOrdered is -1, 0 or +1 as a is below, equal to or above b; a NaN
// sits above every other number and equals NaN, as in types.Compare.
func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return types.CompareNaN(float64(a), float64(b))
}

// unbound is the error a `?` past the run's parameter vector reads as.
func unbound(p *Param, params []types.Value) error {
	return fmt.Errorf("parameter %s is not bound (%d value(s) supplied)", p, len(params))
}
