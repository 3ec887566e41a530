// Parameter placeholders. A Param is a leaf standing for a value supplied
// at execution time: the binder creates one per `?` in the statement, the
// optimizer treats it as an opaque constant (default selectivities), and
// Compile turns it into a slot — a read of the run's parameter vector,
// which every compiled expression takes when it evaluates. A plan is
// therefore compiled once and run with any number of argument vectors; no
// expression is rewritten per run.
package expr

import (
	"fmt"

	"aggview/internal/schema"
	"aggview/internal/types"
)

// Param is a deferred constant: the Idx-th (0-based) `?` of the statement.
type Param struct {
	Idx int
}

// NewParam builds a parameter reference.
func NewParam(idx int) *Param { return &Param{Idx: idx} }

// String renders the placeholder with its 1-based ordinal, matching the
// error messages users see ("parameter ?1 ...").
func (p *Param) String() string { return fmt.Sprintf("?%d", p.Idx+1) }

// Type is unknown until a value arrives.
func (p *Param) Type(schema.Schema) types.Kind { return types.KindNull }

func (p *Param) substitute(map[schema.ColID]Expr) Expr { return p }

// compileParam compiles the slot read. An ordinal past the run's vector is
// an arity error, reported when the slot is read.
func compileParam(p *Param) Compiled {
	i := p.Idx
	return func(_ types.Row, params []types.Value) (types.Value, error) {
		if i >= len(params) {
			return types.Null(), unbound(p, params)
		}
		return params[i], nil
	}
}

// staticInt reports whether e is INT by its static type, counting a Param
// as INT: arithmetic over a parameter then keeps INT exactly when the run's
// values are INT, as a literal in the parameter's place would. Without a
// Param it is e.Type(s) == KindInt.
func staticInt(e Expr, s schema.Schema) bool {
	switch t := e.(type) {
	case *Param:
		return true
	case *Arith:
		return t.Op != Div && staticInt(t.L, s) && staticInt(t.R, s)
	case *Fn:
		return t.Name == "ABS" && staticInt(t.Arg, s)
	}
	return e.Type(s) == types.KindInt
}
