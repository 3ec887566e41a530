package core

import (
	"testing"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// The minimal invariant set V′ of a view block (Section 4.1): the smallest
// set of relations the group-by must wait for.

func example2Block(e *env) *qblock.Block {
	return &qblock.Block{
		Rels: []*qblock.Rel{
			{Alias: "e", Table: e.emp},
			{Alias: "d", Table: e.dept},
		},
		Conjs: []expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.LT, expr.Col("d", "budget"), expr.FloatLit(1e6)),
		},
		GroupCols: []schema.ColID{{Rel: "e", Name: "dno"}},
		Aggs: []expr.Agg{{Kind: expr.AggAvg, Arg: expr.Col("e", "sal"),
			Out: schema.ColID{Rel: "v", Name: "asal"}}},
		Outputs: []lplan.NamedExpr{
			{E: expr.Col("e", "dno"), As: schema.ColID{Rel: "v", Name: "dno"}},
			{E: expr.Col("v", "asal"), As: schema.ColID{Rel: "v", Name: "asal"}},
		},
	}
}

func TestMinimalInvariantSetExample2(t *testing.T) {
	e := newEnv(t, 13, 10, 3)
	b := example2Block(e)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	s := minimalInvariantAliases(b)
	if len(s) != 1 || !s["e"] {
		t.Fatalf("minimal invariant set = %v, want {e}", s)
	}
}

func TestMinimalInvariantSetNonKeyJoinKeepsRel(t *testing.T) {
	e := newEnv(t, 14, 10, 3)
	b := example2Block(e)
	// Replace dept with the keyless table: not removable.
	b.Rels[1] = &qblock.Rel{Alias: "d", Table: addNoKey(t, e, 14, 6, 3)}
	b.Conjs = []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))}
	s := minimalInvariantAliases(b)
	if len(s) != 2 {
		t.Fatalf("minimal invariant set = %v, want both relations", s)
	}
}

func TestMinimalInvariantSetNonGroupingJoinColumn(t *testing.T) {
	e := newEnv(t, 15, 10, 3)
	b := example2Block(e)
	// Join on e.eno (not a grouping column): d must stay.
	b.Conjs[0] = expr.NewCmp(expr.EQ, expr.Col("e", "eno"), expr.Col("d", "dno"))
	s := minimalInvariantAliases(b)
	if len(s) != 2 {
		t.Fatalf("minimal invariant set = %v, want both relations", s)
	}
}

func TestMinimalInvariantSetChain(t *testing.T) {
	// emp ⋈ dept ⋈ dept2 chained on keys: both depts removable.
	e := newEnv(t, 16, 10, 3)
	d2, err := e.cat.CreateTable("dept2", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "region"}, Type: types.KindInt},
	}, []string{"dno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := example2Block(e)
	b.Rels = append(b.Rels, &qblock.Rel{Alias: "d2", Table: d2})
	b.Conjs = append(b.Conjs, expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d2", "dno")))
	s := minimalInvariantAliases(b)
	if len(s) != 1 || !s["e"] {
		t.Fatalf("minimal invariant set = %v, want {e}", s)
	}
}

func TestMinimalInvariantSetAggArgsPin(t *testing.T) {
	e := newEnv(t, 17, 10, 3)
	b := example2Block(e)
	// Aggregate over d.budget: d is pinned.
	b.Aggs = []expr.Agg{{Kind: expr.AggSum, Arg: expr.Col("d", "budget"),
		Out: schema.ColID{Rel: "v", Name: "asal"}}}
	s := minimalInvariantAliases(b)
	if !s["d"] {
		t.Fatalf("minimal invariant set = %v, want d pinned", s)
	}
}

func TestMinimalInvariantSetNoGroupBy(t *testing.T) {
	e := newEnv(t, 18, 10, 3)
	b := example2Block(e)
	b.GroupCols, b.Aggs = nil, nil
	b.Outputs = []lplan.NamedExpr{{E: expr.Col("e", "sal"), As: schema.ColID{Rel: "v", Name: "sal"}}}
	if s := minimalInvariantAliases(b); len(s) != 0 {
		t.Fatalf("SPJ block should have an empty minimal invariant set, got %v", s)
	}
}
