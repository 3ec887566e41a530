package lplan

import (
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// empDept builds the paper's running example catalog: emp(eno,dno,sal,age)
// keyed on eno, dept(dno,budget) keyed on dno.
func empDept(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New(storage.NewStore(64))
	_, err := c.CreateTable("emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "age"}, Type: types.KindInt},
	}, []string{"eno"}, []schema.ForeignKey{
		{Cols: []string{"dno"}, RefTable: "dept", RefCols: []string{"dno"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateTable("dept", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "budget"}, Type: types.KindFloat},
	}, []string{"dno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func scan(t *testing.T, c *catalog.Catalog, table, alias string) *Scan {
	t.Helper()
	tbl, ok := c.Table(table)
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	return &Scan{Alias: alias, Table: tbl}
}

func TestScanSchemaAliasing(t *testing.T) {
	c := empDept(t)
	s := scan(t, c, "emp", "e1")
	sch := s.Schema()
	if len(sch) != 4 || sch[0].ID.Rel != "e1" {
		t.Fatalf("schema = %s", sch)
	}
}

func TestScanWithTIDAndProjection(t *testing.T) {
	c := empDept(t)
	s := &Scan{Alias: "e", Table: mustTable(t, c, "emp"), WithTID: true}
	sch := s.Schema()
	if sch[len(sch)-1].ID.Name != TIDColumn {
		t.Fatalf("missing tid: %s", sch)
	}
	p := &Scan{Alias: "e", Table: mustTable(t, c, "emp"),
		Proj: []schema.ColID{{Rel: "e", Name: "sal"}}}
	if len(p.Schema()) != 1 || p.Schema()[0].ID.Name != "sal" {
		t.Fatalf("projected schema = %s", p.Schema())
	}
}

func mustTable(t *testing.T, c *catalog.Catalog, name string) *catalog.Table {
	t.Helper()
	tbl, ok := c.Table(name)
	if !ok {
		t.Fatalf("table %q missing", name)
	}
	return tbl
}

func exampleJoin(t *testing.T, c *catalog.Catalog) *Join {
	return &Join{
		L:     scan(t, c, "emp", "e"),
		R:     scan(t, c, "dept", "d"),
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))},
	}
}

func TestJoinSchemaConcatAndProj(t *testing.T) {
	c := empDept(t)
	j := exampleJoin(t, c)
	if len(j.Schema()) != 6 {
		t.Fatalf("join schema = %s", j.Schema())
	}
	j2 := exampleJoin(t, c)
	j2.Proj = []schema.ColID{{Rel: "e", Name: "sal"}, {Rel: "d", Name: "budget"}}
	if len(j2.Schema()) != 2 {
		t.Fatalf("projected join schema = %s", j2.Schema())
	}
}

func exampleGroupBy(t *testing.T, c *catalog.Catalog) *GroupBy {
	return &GroupBy{
		In:        scan(t, c, "emp", "e2"),
		GroupCols: []schema.ColID{{Rel: "e2", Name: "dno"}},
		Aggs: []expr.Agg{{
			Kind: expr.AggAvg, Arg: expr.Col("e2", "sal"),
			Out: schema.ColID{Rel: "b", Name: "asal"},
		}},
	}
}

func TestGroupBySchema(t *testing.T) {
	c := empDept(t)
	g := exampleGroupBy(t, c)
	sch := g.Schema()
	if len(sch) != 2 {
		t.Fatalf("schema = %s", sch)
	}
	if sch[0].ID != (schema.ColID{Rel: "e2", Name: "dno"}) {
		t.Fatalf("grouping col = %v", sch[0].ID)
	}
	if sch[1].ID != (schema.ColID{Rel: "b", Name: "asal"}) || sch[1].Type != types.KindFloat {
		t.Fatalf("agg col = %v %v", sch[1].ID, sch[1].Type)
	}
}

func TestGroupByOutputsRename(t *testing.T) {
	c := empDept(t)
	g := exampleGroupBy(t, c)
	g.Outputs = []NamedExpr{
		{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
		{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
	}
	sch := g.Schema()
	if sch[0].ID.Rel != "b" || sch[1].ID.Rel != "b" {
		t.Fatalf("outputs schema = %s", sch)
	}
}

func TestValidateAcceptsLegalTree(t *testing.T) {
	c := empDept(t)
	g := exampleGroupBy(t, c)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("b", "asal"), expr.IntLit(100))}
	top := &Join{
		L:     scan(t, c, "emp", "e1"),
		R:     g,
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("e2", "dno"))},
	}
	if err := Validate(top); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadColumns(t *testing.T) {
	c := empDept(t)

	badScan := scan(t, c, "emp", "e")
	badScan.Filter = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("zz", "q"), expr.IntLit(1))}
	if err := Validate(badScan); err == nil {
		t.Errorf("scan with foreign filter column accepted")
	}

	badJoin := exampleJoin(t, c)
	badJoin.Preds = append(badJoin.Preds, expr.NewCmp(expr.EQ, expr.Col("x", "y"), expr.IntLit(1)))
	if err := Validate(badJoin); err == nil {
		t.Errorf("join with unresolved predicate accepted")
	}

	badGB := exampleGroupBy(t, c)
	badGB.GroupCols = append(badGB.GroupCols, schema.ColID{Rel: "nope", Name: "c"})
	if err := Validate(badGB); err == nil {
		t.Errorf("group-by with missing grouping column accepted")
	}

	badHaving := exampleGroupBy(t, c)
	badHaving.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e2", "age"), expr.IntLit(1))}
	if err := Validate(badHaving); err == nil {
		t.Errorf("having over non-grouped column accepted")
	}

	dupAgg := exampleGroupBy(t, c)
	dupAgg.Aggs = append(dupAgg.Aggs, dupAgg.Aggs[0])
	if err := Validate(dupAgg); err == nil {
		t.Errorf("duplicate aggregate output accepted")
	}

	noArg := exampleGroupBy(t, c)
	noArg.Aggs = []expr.Agg{{Kind: expr.AggSum, Out: schema.ColID{Rel: "b", Name: "s"}}}
	if err := Validate(noArg); err == nil {
		t.Errorf("SUM without argument accepted")
	}
}

func TestKeyInference(t *testing.T) {
	c := empDept(t)

	// Scan: primary key.
	s := scan(t, c, "emp", "e1")
	k, ok := Key(s)
	if !ok || len(k) != 1 || k[0] != (schema.ColID{Rel: "e1", Name: "eno"}) {
		t.Fatalf("scan key = %v %v", k, ok)
	}

	// Scan with TID: tid preferred.
	st := &Scan{Alias: "e", Table: mustTable(t, c, "emp"), WithTID: true}
	k, ok = Key(st)
	if !ok || k[0].Name != TIDColumn {
		t.Fatalf("tid key = %v %v", k, ok)
	}

	// Projection dropping the key loses it.
	sp := &Scan{Alias: "e", Table: mustTable(t, c, "emp"),
		Proj: []schema.ColID{{Rel: "e", Name: "sal"}}}
	if _, ok := Key(sp); ok {
		t.Fatalf("projected-away key still reported")
	}

	// Join: union of keys.
	j := exampleJoin(t, c)
	k, ok = Key(j)
	if !ok || len(k) != 2 {
		t.Fatalf("join key = %v %v", k, ok)
	}

	// GroupBy: grouping cols.
	g := exampleGroupBy(t, c)
	k, ok = Key(g)
	if !ok || len(k) != 1 || k[0].Name != "dno" {
		t.Fatalf("group-by key = %v %v", k, ok)
	}

	// GroupBy with renaming outputs keeps the key under the new name.
	g2 := exampleGroupBy(t, c)
	g2.Outputs = []NamedExpr{
		{E: expr.Col("e2", "dno"), As: schema.ColID{Rel: "b", Name: "dno"}},
		{E: expr.Col("b", "asal"), As: schema.ColID{Rel: "b", Name: "asal"}},
	}
	k, ok = Key(g2)
	if !ok || k[0] != (schema.ColID{Rel: "b", Name: "dno"}) {
		t.Fatalf("renamed group-by key = %v %v", k, ok)
	}

	// Scalar group-by: empty key (single row).
	g3 := exampleGroupBy(t, c)
	g3.GroupCols = nil
	k, ok = Key(g3)
	if !ok || len(k) != 0 {
		t.Fatalf("scalar group-by key = %v %v", k, ok)
	}
}

func TestFormatTree(t *testing.T) {
	c := empDept(t)
	g := exampleGroupBy(t, c)
	top := &Join{L: scan(t, c, "emp", "e1"), R: g, Method: JoinHash,
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("e2", "dno"))}}
	out := Format(top)
	if !strings.Contains(out, "Join[hash]") {
		t.Errorf("missing join line:\n%s", out)
	}
	if !strings.Contains(out, "  Scan emp AS e1") {
		t.Errorf("missing indented scan:\n%s", out)
	}
	if !strings.Contains(out, "GroupBy") || !strings.Contains(out, "AVG(e2.sal)") {
		t.Errorf("missing group-by detail:\n%s", out)
	}
}

func TestProjectAndFilterAndSort(t *testing.T) {
	c := empDept(t)
	s := scan(t, c, "emp", "e")
	p := &Project{In: s, Items: []NamedExpr{
		{E: expr.NewArith(expr.Div, expr.Col("e", "sal"), expr.IntLit(2)), As: schema.ColID{Rel: "", Name: "half"}},
	}}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	if p.Schema()[0].Type != types.KindFloat {
		t.Fatalf("project type = %v", p.Schema()[0].Type)
	}

	f := &Filter{In: s, Preds: []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(22))}}
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Schema()) != 4 {
		t.Fatalf("filter schema = %s", f.Schema())
	}

	so := &Sort{In: s, By: []schema.ColID{{Rel: "e", Name: "dno"}}}
	if err := Validate(so); err != nil {
		t.Fatal(err)
	}
	bad := &Sort{In: s, By: []schema.ColID{{Rel: "e", Name: "zz"}}}
	if err := Validate(bad); err == nil {
		t.Fatalf("sort on missing column accepted")
	}
	desc := &Sort{In: s, By: []schema.ColID{{Rel: "e", Name: "dno"}, {Rel: "e", Name: "eno"}}, Desc: []bool{true, false}}
	if err := Validate(desc); err != nil {
		t.Fatal(err)
	}
	if got := desc.Describe(); got != "Sort by e.dno DESC, e.eno" {
		t.Errorf("Describe = %q", got)
	}
	if err := Validate(&Sort{In: s, By: desc.By, Desc: []bool{true}}); err == nil {
		t.Fatalf("sort with fewer directions than keys accepted")
	}
	_, ok := Key(so)
	if !ok {
		t.Fatalf("sort should preserve key")
	}
}

func TestMethodStrings(t *testing.T) {
	if JoinHash.String() != "hash" || JoinBlockNL.String() != "block-nl" ||
		JoinMerge.String() != "merge" || JoinUnset.String() != "?" {
		t.Errorf("join method strings wrong")
	}
	if AggHash.String() != "hash" || AggSort.String() != "sort" || AggUnset.String() != "?" {
		t.Errorf("agg method strings wrong")
	}
}
