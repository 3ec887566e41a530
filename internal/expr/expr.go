// Package expr implements scalar expressions, predicates and aggregate
// functions for the aggview engine.
//
// Expressions are immutable trees over column references and constants.
// They serve two masters: the optimizer, which analyses them symbolically
// (column sets, equi-join shape, substitution during transformations), and
// the executor, which compiles them against a concrete schema into
// index-resolved evaluators.
package expr

import (
	"fmt"
	"slices"
	"strings"

	"aggview/internal/schema"
	"aggview/internal/types"
)

// Expr is a scalar expression tree node.
type Expr interface {
	// String renders the expression in SQL-ish syntax for EXPLAIN output.
	String() string
	// Type infers the result kind given an input schema. It returns
	// KindNull when the type cannot be determined (e.g. unresolved column).
	Type(s schema.Schema) types.Kind
	// substitute returns the expression with column references replaced
	// per the map; unmapped references are kept.
	substitute(m map[schema.ColID]Expr) Expr
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Flip returns the operator with its operands swapped (a < b ⇔ b > a).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o
	}
}

// eval applies the comparison to two values.
func (o CmpOp) eval(a, b types.Value) bool {
	c := types.Compare(a, b)
	switch o {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	default:
		return false
	}
}

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String renders the operator.
func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return fmt.Sprintf("ArithOp(%d)", int(o))
	}
}

// ColRef references a column by identity.
type ColRef struct {
	ID schema.ColID
}

// Col is shorthand for a qualified column reference.
func Col(rel, name string) *ColRef { return &ColRef{ID: schema.ColID{Rel: rel, Name: name}} }

// ColOf wraps an existing identity.
func ColOf(id schema.ColID) *ColRef { return &ColRef{ID: id} }

func (c *ColRef) String() string { return c.ID.String() }

// Type resolves the column's declared kind.
func (c *ColRef) Type(s schema.Schema) types.Kind {
	if i, err := s.IndexOf(c.ID); err == nil && i >= 0 {
		return s[i].Type
	}
	return types.KindNull
}

func (c *ColRef) substitute(m map[schema.ColID]Expr) Expr {
	if r, ok := m[c.ID]; ok {
		return r
	}
	return c
}

// Const is a literal value.
type Const struct {
	Val types.Value
}

// IntLit, FloatLit, StrLit and BoolLit build literal expressions.
func IntLit(v int64) *Const     { return &Const{Val: types.NewInt(v)} }
func FloatLit(v float64) *Const { return &Const{Val: types.NewFloat(v)} }
func StrLit(v string) *Const    { return &Const{Val: types.NewString(v)} }
func BoolLit(v bool) *Const     { return &Const{Val: types.NewBool(v)} }
func Lit(v types.Value) *Const  { return &Const{Val: v} }

func (c *Const) String() string                        { return c.Val.String() }
func (c *Const) Type(schema.Schema) types.Kind         { return c.Val.K }
func (c *Const) substitute(map[schema.ColID]Expr) Expr { return c }

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison expression.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}
func (c *Cmp) Type(schema.Schema) types.Kind { return types.KindBool }
func (c *Cmp) substitute(m map[schema.ColID]Expr) Expr {
	return &Cmp{Op: c.Op, L: c.L.substitute(m), R: c.R.substitute(m)}
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic expression.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Type infers INT only when both sides are INT and the operator is not
// division; otherwise FLOAT.
func (a *Arith) Type(s schema.Schema) types.Kind {
	if a.Op != Div && a.L.Type(s) == types.KindInt && a.R.Type(s) == types.KindInt {
		return types.KindInt
	}
	return types.KindFloat
}
func (a *Arith) substitute(m map[schema.ColID]Expr) Expr {
	return &Arith{Op: a.Op, L: a.L.substitute(m), R: a.R.substitute(m)}
}

// Logic is an n-ary AND or OR.
type Logic struct {
	IsOr  bool
	Terms []Expr
}

// And and Or build logical connectives.
func And(terms ...Expr) *Logic { return &Logic{Terms: terms} }
func Or(terms ...Expr) *Logic  { return &Logic{IsOr: true, Terms: terms} }

func (l *Logic) String() string {
	sep := " AND "
	if l.IsOr {
		sep = " OR "
	}
	parts := make([]string, len(l.Terms))
	for i, t := range l.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
func (l *Logic) Type(schema.Schema) types.Kind { return types.KindBool }
func (l *Logic) substitute(m map[schema.ColID]Expr) Expr {
	terms := make([]Expr, len(l.Terms))
	for i, t := range l.Terms {
		terms[i] = t.substitute(m)
	}
	return &Logic{IsOr: l.IsOr, Terms: terms}
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// NewNot builds a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (n *Not) String() string                { return "NOT (" + n.E.String() + ")" }
func (n *Not) Type(schema.Schema) types.Kind { return types.KindBool }
func (n *Not) substitute(m map[schema.ColID]Expr) Expr {
	return &Not{E: n.E.substitute(m)}
}

// IsNull tests a value for NULL (IS NULL / IS NOT NULL). Unlike every
// comparison it always yields TRUE or FALSE, never UNKNOWN.
type IsNull struct {
	E      Expr
	Negate bool // true for IS NOT NULL
}

// NewIsNull builds an IS [NOT] NULL test.
func NewIsNull(e Expr, negate bool) *IsNull { return &IsNull{E: e, Negate: negate} }

func (n *IsNull) String() string {
	if n.Negate {
		return "(" + n.E.String() + " IS NOT NULL)"
	}
	return "(" + n.E.String() + " IS NULL)"
}
func (n *IsNull) Type(schema.Schema) types.Kind { return types.KindBool }
func (n *IsNull) substitute(m map[schema.ColID]Expr) Expr {
	return &IsNull{E: n.E.substitute(m), Negate: n.Negate}
}

// appendRefs appends every column reference in e to dst, repeats
// included, in tree order. It is a function, not a method, so that a
// caller's stack buffer passed as dst stays on the stack.
func appendRefs(dst []schema.ColID, e Expr) []schema.ColID {
	switch n := e.(type) {
	case *ColRef:
		return append(dst, n.ID)
	case *Cmp:
		return appendRefs(appendRefs(dst, n.L), n.R)
	case *Arith:
		return appendRefs(appendRefs(dst, n.L), n.R)
	case *Logic:
		for _, t := range n.Terms {
			dst = appendRefs(dst, t)
		}
	case *Not:
		return appendRefs(dst, n.E)
	case *IsNull:
		return appendRefs(dst, n.E)
	case *Fn:
		return appendRefs(dst, n.Arg)
	}
	return dst // *Const, *Param
}

// ColumnBuf is a buffer for AppendColumns to collect one expression's
// columns in: declared as a local, it lives on the stack, and only an
// expression with more references spills to the heap.
type ColumnBuf [16]schema.ColID

// AppendColumns appends to dst the distinct column identities e
// references, in first-occurrence order. With a dst reused across calls it
// allocates nothing.
func AppendColumns(dst []schema.ColID, e Expr) []schema.ColID {
	n := len(dst)
	dst = appendRefs(dst, e)
	out := dst[:n]
	for _, c := range dst[n:] {
		if !slices.Contains(out[n:], c) {
			out = append(out, c)
		}
	}
	return out
}

// Columns returns the distinct column identities referenced by e,
// in first-occurrence order, in one allocation (none when there are none).
func Columns(e Expr) []schema.ColID {
	var buf ColumnBuf
	cols := AppendColumns(buf[:0], e)
	if len(cols) == 0 {
		return nil
	}
	return slices.Clone(cols)
}

// Rels returns the distinct relation aliases referenced by e, in
// first-occurrence order.
func Rels(e Expr) []string {
	var buf ColumnBuf
	refs := appendRefs(buf[:0], e)
	if len(refs) == 0 {
		return nil
	}
	out := make([]string, 0, len(refs))
	for _, c := range refs {
		if !slices.Contains(out, c.Rel) {
			out = append(out, c.Rel)
		}
	}
	return out
}

// Substitute replaces column references per the map, returning a new tree.
func Substitute(e Expr, m map[schema.ColID]Expr) Expr {
	if len(m) == 0 {
		return e
	}
	return e.substitute(m)
}

// RenameRels rewrites every column reference whose Rel appears in the map.
func RenameRels(e Expr, m map[string]string) Expr {
	if len(m) == 0 {
		return e
	}
	var buf ColumnBuf
	sub := map[schema.ColID]Expr{}
	for _, id := range appendRefs(buf[:0], e) {
		if to, ok := m[id.Rel]; ok {
			sub[id] = ColOf(schema.ColID{Rel: to, Name: id.Name})
		}
	}
	return Substitute(e, sub)
}

// Conjuncts splits a boolean expression into its top-level AND factors.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*Logic); ok && !l.IsOr {
		var out []Expr
		for _, t := range l.Terms {
			out = append(out, Conjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// EquiJoin decomposes a conjunct of the form left.col = right.col where the
// two sides are single column references of different relations. It reports
// ok=false otherwise.
func EquiJoin(e Expr) (l, r schema.ColID, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != EQ {
		return l, r, false
	}
	lc, lok := c.L.(*ColRef)
	rc, rok := c.R.(*ColRef)
	if !lok || !rok || lc.ID.Rel == rc.ID.Rel {
		return l, r, false
	}
	return lc.ID, rc.ID, true
}

// Fn is a built-in scalar function application (SQRT, ABS). It exists
// chiefly so decomposable user-defined aggregates can rebuild their final
// value from coalesced partials (e.g. STDDEV from SUM/SUMSQ/COUNT).
type Fn struct {
	Name string // upper-case: SQRT, ABS
	Arg  Expr
}

// NewFn builds a scalar function call.
func NewFn(name string, arg Expr) *Fn { return &Fn{Name: name, Arg: arg} }

// IsScalarFn reports whether name (upper-case) is a supported scalar
// function.
func IsScalarFn(name string) bool { return name == "SQRT" || name == "ABS" }

func (f *Fn) String() string { return f.Name + "(" + f.Arg.String() + ")" }

// Type of a scalar math function is FLOAT (ABS of INT stays INT).
func (f *Fn) Type(s schema.Schema) types.Kind {
	if f.Name == "ABS" && f.Arg.Type(s) == types.KindInt {
		return types.KindInt
	}
	return types.KindFloat
}
func (f *Fn) substitute(m map[schema.ColID]Expr) Expr {
	return &Fn{Name: f.Name, Arg: f.Arg.substitute(m)}
}
