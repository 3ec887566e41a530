package expr

import (
	"fmt"
	"math"

	"aggview/internal/schema"
	"aggview/internal/types"
)

// Compiled is an expression resolved against a concrete schema: column
// references have become row indexes and each `?` a read of params, the
// run's parameter vector, so evaluation allocates nothing and one compiled
// expression serves every run.
type Compiled func(row types.Row, params []types.Value) (types.Value, error)

// Predicate is a compiled filter: true when the row passes under params.
type Predicate func(row types.Row, params []types.Value) (bool, error)

// Compile resolves e against s. It fails if a referenced column is missing
// or ambiguous. Division by zero is reported at evaluation time.
func Compile(e Expr, s schema.Schema) (Compiled, error) {
	switch n := e.(type) {
	case *ColRef:
		i, err := n.position(s)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, _ []types.Value) (types.Value, error) { return row[i], nil }, nil

	case *Const:
		v := n.Val
		return func(types.Row, []types.Value) (types.Value, error) { return v, nil }, nil

	case *Cmp:
		l, err := Compile(n.L, s)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.R, s)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(row types.Row, params []types.Value) (types.Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row, params)
			if err != nil {
				return types.Null(), err
			}
			// SQL three-valued logic: a comparison with NULL on either
			// side is UNKNOWN, never TRUE or FALSE (so NULL = NULL is
			// UNKNOWN even though types.Compare orders NULLs equal).
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.NewBool(op.eval(lv, rv)), nil
		}, nil

	case *Arith:
		l, err := Compile(n.L, s)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.R, s)
		if err != nil {
			return nil, err
		}
		op := n.Op
		intResult := staticInt(n, s)
		return func(row types.Row, params []types.Value) (types.Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row, params)
			if err != nil {
				return types.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			if intResult && lv.K == types.KindInt && rv.K == types.KindInt {
				switch op {
				case Add:
					return types.NewInt(lv.I + rv.I), nil
				case Sub:
					return types.NewInt(lv.I - rv.I), nil
				case Mul:
					return types.NewInt(lv.I * rv.I), nil
				}
			}
			lf, rf := lv.Float(), rv.Float()
			switch op {
			case Add:
				return types.NewFloat(lf + rf), nil
			case Sub:
				return types.NewFloat(lf - rf), nil
			case Mul:
				return types.NewFloat(lf * rf), nil
			case Div:
				if rf == 0 {
					return types.Null(), fmt.Errorf("division by zero")
				}
				return types.NewFloat(lf / rf), nil
			}
			return types.Null(), fmt.Errorf("unknown arithmetic operator %v", op)
		}, nil

	case *Logic:
		terms := make([]Compiled, len(n.Terms))
		for i, t := range n.Terms {
			c, err := Compile(t, s)
			if err != nil {
				return nil, err
			}
			terms[i] = c
		}
		isOr := n.IsOr
		return func(row types.Row, params []types.Value) (types.Value, error) {
			// Kleene AND/OR: the dominant value (FALSE for AND, TRUE for
			// OR) short-circuits even past UNKNOWN terms; otherwise any
			// UNKNOWN term makes the result UNKNOWN.
			sawNull := false
			for _, t := range terms {
				v, err := t(row, params)
				if err != nil {
					return types.Null(), err
				}
				if v.IsNull() {
					sawNull = true
					continue
				}
				if v.Bool() == isOr {
					return types.NewBool(isOr), nil
				}
			}
			if sawNull {
				return types.Null(), nil
			}
			return types.NewBool(!isOr), nil
		}, nil

	case *Fn:
		return compileFn(n, s)

	case *Param:
		return compileParam(n), nil

	case *Not:
		inner, err := Compile(n.E, s)
		if err != nil {
			return nil, err
		}
		return func(row types.Row, params []types.Value) (types.Value, error) {
			v, err := inner(row, params)
			if err != nil {
				return types.Null(), err
			}
			// NOT UNKNOWN is UNKNOWN — it must stay distinct from both
			// TRUE and FALSE so WHERE NOT (x = NULL) filters the row.
			if v.IsNull() {
				return types.Null(), nil
			}
			return types.NewBool(!v.Bool()), nil
		}, nil

	case *IsNull:
		inner, err := Compile(n.E, s)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(row types.Row, params []types.Value) (types.Value, error) {
			v, err := inner(row, params)
			if err != nil {
				return types.Null(), err
			}
			// IS [NOT] NULL is the one predicate that is never UNKNOWN.
			return types.NewBool(v.IsNull() != negate), nil
		}, nil

	default:
		return nil, fmt.Errorf("cannot compile expression of type %T", e)
	}
}

// position resolves the column against s. It fails if the column is
// missing or ambiguous.
func (c *ColRef) position(s schema.Schema) (int, error) {
	i, err := s.IndexOf(c.ID)
	if err != nil {
		return -1, err
	}
	if i < 0 {
		return -1, fmt.Errorf("column %q not found in schema %s", c.ID, s)
	}
	return i, nil
}

// CompilePredicate compiles a boolean expression into a row filter.
// A nil expression compiles to an always-true filter. Rows pass only when
// the predicate is TRUE: both FALSE and UNKNOWN (NULL) are filtered, per
// SQL WHERE/HAVING semantics (types.Null().Bool() is false).
func CompilePredicate(e Expr, s schema.Schema) (Predicate, error) {
	if e == nil {
		return func(types.Row, []types.Value) (bool, error) { return true, nil }, nil
	}
	c, err := Compile(e, s)
	if err != nil {
		return nil, err
	}
	return func(row types.Row, params []types.Value) (bool, error) {
		v, err := c(row, params)
		if err != nil {
			return false, err
		}
		return v.Bool(), nil
	}, nil
}

// compileFn compiles scalar function applications.
func compileFn(n *Fn, s schema.Schema) (Compiled, error) {
	arg, err := Compile(n.Arg, s)
	if err != nil {
		return nil, err
	}
	switch n.Name {
	case "SQRT":
		return func(row types.Row, params []types.Value) (types.Value, error) {
			v, err := arg(row, params)
			if err != nil || v.IsNull() {
				return types.Null(), err
			}
			f := v.Float()
			if f < 0 {
				return types.Null(), fmt.Errorf("SQRT of negative value %g", f)
			}
			return types.NewFloat(math.Sqrt(f)), nil
		}, nil
	case "ABS":
		return func(row types.Row, params []types.Value) (types.Value, error) {
			v, err := arg(row, params)
			if err != nil || v.IsNull() {
				return types.Null(), err
			}
			if v.K == types.KindInt {
				if v.I < 0 {
					return types.NewInt(-v.I), nil
				}
				return v, nil
			}
			return types.NewFloat(math.Abs(v.Float())), nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown scalar function %q", n.Name)
	}
}
