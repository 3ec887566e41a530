package sql

import (
	"fmt"
	"strings"

	"aggview/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Kind
	PrimaryKey bool // inline PRIMARY KEY
}

// ForeignKeyDef is a table-level FOREIGN KEY clause.
type ForeignKeyDef struct {
	Cols     []string
	RefTable string
	RefCols  []string
}

// CreateTable is CREATE TABLE name (...).
type CreateTable struct {
	Name        string
	Cols        []ColumnDef
	PrimaryKey  []string
	ForeignKeys []ForeignKeyDef
}

func (*CreateTable) stmt() {}

// CreateView is CREATE VIEW name [(cols)] AS select. Text preserves the
// defining SELECT verbatim for the catalog.
type CreateView struct {
	Name  string
	Cols  []string
	Query *Select
	Text  string
}

func (*CreateView) stmt() {}

// CreateMaterializedView is CREATE MATERIALIZED VIEW name AS select.
// Text preserves the defining SELECT verbatim for the catalog; the
// definition must be a single-block aggregate query over base tables.
type CreateMaterializedView struct {
	Name  string
	Query *Select
	Text  string
}

func (*CreateMaterializedView) stmt() {}

// DropMaterializedView is DROP MATERIALIZED VIEW name.
type DropMaterializedView struct{ Name string }

func (*DropMaterializedView) stmt() {}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

// Insert is INSERT INTO table VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]Expr // literal expressions only
}

func (*Insert) stmt() {}

// Analyze is ANALYZE [table].
type Analyze struct{ Table string }

func (*Analyze) stmt() {}

// Explain wraps a SELECT. Analyze marks EXPLAIN ANALYZE: the query is
// executed and the plan annotated with measured per-operator metrics.
type Explain struct {
	Query   *Select
	Analyze bool
}

func (*Explain) stmt() {}

// Select is a query block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  []Name
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

func (*Select) stmt() {}

// SelectItem is one projection: * or expr [AS alias].
type SelectItem struct {
	Star  bool
	E     Expr
	Alias string
}

// JoinType classifies how a FROM item joins the items before it.
type JoinType int

// Join types. JoinNone covers the first FROM item, comma-separated items,
// and INNER JOIN, whose ON predicate the parser folds into WHERE when the
// FROM holds no outer join (inner join is then plain conjunctive
// semantics). The outer types keep their ON predicate attached: it is a
// match condition, not a filter.
const (
	JoinNone JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
)

// String renders the join type as SQL.
func (j JoinType) String() string {
	switch j {
	case JoinLeft:
		return "LEFT OUTER JOIN"
	case JoinRight:
		return "RIGHT OUTER JOIN"
	case JoinFull:
		return "FULL OUTER JOIN"
	default:
		return "JOIN"
	}
}

// FromItem is a table reference or a derived table.
type FromItem struct {
	Table    string   // base table or view name ("" for derived tables)
	Subquery *Select  // derived table
	Alias    string   // always set after parsing (defaults to the table name)
	Join     JoinType // how this item joins the previous ones (JoinNone for inner/comma)
	On       Expr     // ON predicate: of an outer join, or of an INNER JOIN in a FROM holding an outer join; else nil
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    Expr
	Desc bool
}

// Expr is an unresolved scalar expression.
type Expr interface{ expr() }

// Name references a column, optionally qualified.
type Name struct {
	Qual string // table alias; "" if unqualified
	Col  string
}

func (Name) expr() {}

// String renders the reference.
func (n Name) String() string {
	if n.Qual == "" {
		return n.Col
	}
	return n.Qual + "." + n.Col
}

// Lit is a literal value.
type Lit struct{ Val types.Value }

func (Lit) expr() {}

// Param is a `?` parameter placeholder. Idx is the 0-based ordinal in
// statement text order, assigned by the parser.
type Param struct{ Idx int }

func (Param) expr() {}

// Bin is a binary operation; Op is one of = <> < <= > >= + - * / AND OR.
type Bin struct {
	Op   string
	L, R Expr
}

func (Bin) expr() {}

// Not negates a boolean expression.
type Not struct{ E Expr }

func (Not) expr() {}

// Neg is unary minus.
type Neg struct{ E Expr }

func (Neg) expr() {}

// IsNull is `expr IS [NOT] NULL`.
type IsNull struct {
	E   Expr
	Neg bool
}

func (IsNull) expr() {}

// Call is an aggregate or function call; Star marks COUNT(*).
type Call struct {
	Func string // upper-cased
	Star bool
	Args []Expr
}

func (Call) expr() {}

// Subquery is a scalar subquery used as an operand.
type Subquery struct{ Sel *Select }

func (Subquery) expr() {}

// InSubquery is `expr [NOT] IN (select)`.
type InSubquery struct {
	L   Expr
	Sel *Select
	Neg bool
}

func (InSubquery) expr() {}

// ExistsSubquery is `[NOT] EXISTS (select)`.
type ExistsSubquery struct {
	Sel *Select
	Neg bool
}

func (ExistsSubquery) expr() {}

// ExprString renders an AST expression for diagnostics.
func ExprString(e Expr) string {
	switch t := e.(type) {
	case Name:
		return t.String()
	case Lit:
		return t.Val.String()
	case Param:
		return "?"
	case Bin:
		return fmt.Sprintf("(%s %s %s)", ExprString(t.L), t.Op, ExprString(t.R))
	case Not:
		return "NOT " + ExprString(t.E)
	case Neg:
		return "-" + ExprString(t.E)
	case IsNull:
		if t.Neg {
			return ExprString(t.E) + " IS NOT NULL"
		}
		return ExprString(t.E) + " IS NULL"
	case Call:
		if t.Star {
			return t.Func + "(*)"
		}
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = ExprString(a)
		}
		return t.Func + "(" + strings.Join(args, ", ") + ")"
	case Subquery:
		return "(subquery)"
	case InSubquery:
		neg := ""
		if t.Neg {
			neg = "NOT "
		}
		return ExprString(t.L) + " " + neg + "IN (subquery)"
	case ExistsSubquery:
		neg := ""
		if t.Neg {
			neg = "NOT "
		}
		return neg + "EXISTS (subquery)"
	default:
		return fmt.Sprintf("%T", e)
	}
}
