package qblock

import (
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New(storage.NewStore(16))
	if _, err := c.CreateTable("emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
	}, []string{"eno"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("dept", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "budget"}, Type: types.KindFloat},
	}, []string{"dno"}, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func rel(t *testing.T, c *catalog.Catalog, table, alias string) *Rel {
	t.Helper()
	tbl, ok := c.Table(table)
	if !ok {
		t.Fatalf("missing table %q", table)
	}
	return &Rel{Alias: alias, Table: tbl}
}

func viewBlock(t *testing.T, c *catalog.Catalog) *Block {
	return &Block{
		Rels:      []*Rel{rel(t, c, "emp", "e2")},
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"),
			Out: schema.ColID{Rel: "b", Name: "asal"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
			{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
		},
	}
}

func TestRelSchemaAndKey(t *testing.T) {
	c := testCatalog(t)
	r := rel(t, c, "emp", "e1")
	if r.Schema()[0].ID.Rel != "e1" {
		t.Fatalf("schema not aliased: %s", r.Schema())
	}
	k, ok := r.Key()
	if !ok || k[0] != (schema.ColID{Rel: "e1", Name: "eno"}) {
		t.Fatalf("key = %v %v", k, ok)
	}
}

func TestBlockSchemas(t *testing.T) {
	c := testCatalog(t)
	b := viewBlock(t, c)
	if !b.HasGroupBy() {
		t.Fatalf("HasGroupBy = false")
	}
	inner := b.InnerSchema()
	if len(inner) != 2 || inner[1].ID != (schema.ColID{Rel: "b", Name: "asal"}) {
		t.Fatalf("inner schema = %s", inner)
	}
	out := b.OutputSchema()
	if out[0].ID != (schema.ColID{Rel: "b", Name: "dno"}) || out[1].Type != types.KindFloat {
		t.Fatalf("output schema = %s", out)
	}
	js := b.JoinSchema()
	if len(js) != 3 {
		t.Fatalf("join schema = %s", js)
	}
}

func TestBlockValidate(t *testing.T) {
	c := testCatalog(t)
	b := viewBlock(t, c)
	if err := b.Validate(); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}

	dup := viewBlock(t, c)
	dup.Rels = append(dup.Rels, rel(t, c, "emp", "e2"))
	if err := dup.Validate(); err == nil {
		t.Errorf("duplicate alias accepted")
	}

	badConj := viewBlock(t, c)
	badConj.Conjs = []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("zz", "x"), expr.IntLit(1))}
	if err := badConj.Validate(); err == nil {
		t.Errorf("unknown conjunct column accepted")
	}

	badGroup := viewBlock(t, c)
	badGroup.GroupCols = []schema.ColID{{Rel: "e2", Name: "nope"}}
	if err := badGroup.Validate(); err == nil {
		t.Errorf("unknown grouping column accepted")
	}

	badHaving := viewBlock(t, c)
	badHaving.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e2", "sal"), expr.IntLit(1))}
	if err := badHaving.Validate(); err == nil {
		t.Errorf("having over non-grouped column accepted")
	}

	noOut := viewBlock(t, c)
	noOut.Outputs = nil
	if err := noOut.Validate(); err == nil {
		t.Errorf("block without outputs accepted")
	}

	havingNoGroup := &Block{
		Rels:    []*Rel{rel(t, c, "emp", "e")},
		Having:  []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e", "sal"), expr.IntLit(1))},
		Outputs: []lplan.NamedExpr{{E: expr.Col("e", "sal"), As: schema.ColID{Name: "s"}}},
	}
	if err := havingNoGroup.Validate(); err == nil {
		t.Errorf("HAVING without GROUP BY accepted")
	}
}

func TestQueryValidate(t *testing.T) {
	c := testCatalog(t)
	q := &Query{
		Views: []*AggView{{Alias: "b", Block: viewBlock(t, c)}},
		Top: &Block{
			Rels: []*Rel{rel(t, c, "emp", "e1")},
			Conjs: []expr.Expr{
				expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("e1", "sal"), As: schema.ColID{Name: "sal"}},
			},
		},
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	v, ok := q.View("b")
	if !ok || v.Alias != "b" {
		t.Fatalf("View lookup failed")
	}
	if _, ok := q.View("zz"); ok {
		t.Fatalf("phantom view found")
	}
	out := q.OutputSchema()
	if len(out) != 1 || out[0].ID.Name != "sal" {
		t.Fatalf("output schema = %s", out)
	}

	spj := &Query{
		Views: []*AggView{{Alias: "b", Block: &Block{
			Rels:    []*Rel{rel(t, c, "emp", "x")},
			Outputs: []lplan.NamedExpr{{E: expr.Col("x", "sal"), As: schema.ColID{Rel: "b", Name: "s"}}},
		}}},
		Top: q.Top,
	}
	if err := spj.Validate(); err == nil {
		t.Errorf("non-aggregate view accepted (should be flattened)")
	}

	badCol := &Query{Views: q.Views, Top: &Block{
		Rels:    q.Top.Rels,
		Conjs:   []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("b", "nope"), expr.IntLit(1))},
		Outputs: q.Top.Outputs,
	}}
	if err := badCol.Validate(); err == nil {
		t.Errorf("unknown view column accepted")
	}
}

func TestQueryValidateGroupedTop(t *testing.T) {
	c := testCatalog(t)
	q := &Query{
		Views: []*AggView{{Alias: "b", Block: viewBlock(t, c)}},
		Top: &Block{
			Rels: []*Rel{rel(t, c, "emp", "e1")},
			Conjs: []expr.Expr{
				expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("b", "dno")),
			},
			GroupCols: []schema.ColID{{Rel: "e1", Name: "dno"}},
			Aggs: []expr.Agg{{Kind: expr.AggMax, Arg: expr.Col("b", "asal"),
				Out: schema.ColID{Rel: "g", Name: "m"}}},
			Having: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("g", "m"), expr.IntLit(0))},
			Outputs: []lplan.NamedExpr{
				{E: expr.Col("g", "m"), As: schema.ColID{Name: "m"}},
			},
		},
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("grouped top rejected: %v", err)
	}
	out := q.OutputSchema()
	if out[0].Type != types.KindFloat {
		t.Fatalf("output type = %v", out[0].Type)
	}
}

func TestBlockString(t *testing.T) {
	c := testCatalog(t)
	b := viewBlock(t, c)
	b.Conjs = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e2", "sal"), expr.IntLit(10))}
	s := b.String()
	if !strings.Contains(s, "e2") || !strings.Contains(s, "group=") {
		t.Fatalf("String = %q", s)
	}
}

func TestAliasesAndRelLookup(t *testing.T) {
	c := testCatalog(t)
	b := &Block{Rels: []*Rel{rel(t, c, "emp", "a"), rel(t, c, "dept", "b")}}
	if got := b.Aliases(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Aliases = %v", got)
	}
	if _, ok := b.Rel("b"); !ok {
		t.Fatalf("Rel lookup failed")
	}
	if _, ok := b.Rel("zz"); ok {
		t.Fatalf("phantom rel")
	}
}
