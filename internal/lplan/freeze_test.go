package lplan

import (
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/schema"
)

// frozenExample is a tree with one node of every type.
func frozenExample(t *testing.T, c *catalog.Catalog) Node {
	g := exampleGroupBy(t, c)
	g.Having = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("b", "asal"), expr.IntLit(100))}
	j := &Join{
		L: scan(t, c, "emp", "e1"), R: g, Method: JoinHash,
		Preds: []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("e1", "dno"), expr.Col("e2", "dno"))},
	}
	return &Sort{
		By: []schema.ColID{{Name: "s"}},
		In: &Project{
			Items: []NamedExpr{{E: expr.Col("e1", "sal"), As: schema.ColID{Name: "s"}}},
			In: &Filter{In: j,
				Preds: []expr.Expr{expr.NewCmp(expr.GT, expr.Col("e1", "sal"), expr.Col("b", "asal"))}},
		},
	}
}

func walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		walk(c, fn)
	}
}

// TestFreezeMemoizesWithoutChangingAnswers: after Freeze every node reads
// its schemas from the fields Freeze set, and each equals what an unfrozen
// twin computes; a second Freeze writes nothing.
func TestFreezeMemoizesWithoutChangingAnswers(t *testing.T) {
	c := empDept(t)
	frozen, twin := frozenExample(t, c), frozenExample(t, c)
	Freeze(frozen)
	inner := map[*GroupBy]*schema.Column{}
	walk(frozen, func(n Node) {
		if g, ok := n.(*GroupBy); ok {
			inner[g] = &g.innerOnce[0]
		}
	})
	Freeze(frozen)

	var twins []Node
	walk(twin, func(n Node) { twins = append(twins, n) })
	i := 0
	walk(frozen, func(n Node) {
		ref := twins[i]
		i++
		if n.Describe() != ref.Describe() {
			t.Errorf("%T: frozen label %q, unfrozen %q", n, n.Describe(), ref.Describe())
		}
		if n.Schema().String() != ref.Schema().String() {
			t.Errorf("%T: frozen schema %s, unfrozen %s", n, n.Schema(), ref.Schema())
		}
		if g, ok := n.(*GroupBy); ok {
			if g.innerOnce == nil || g.InnerSchema().String() != ref.(*GroupBy).InnerSchema().String() {
				t.Errorf("group-by inner schema: frozen %s (memo %v), unfrozen %s",
					g.InnerSchema(), g.innerOnce, ref.(*GroupBy).InnerSchema())
			}
			if &g.innerOnce[0] != inner[g] {
				t.Errorf("a second Freeze rewrote the group-by's inner schema")
			}
		}
	})
	if Format(frozen) != Format(twin) {
		t.Errorf("EXPLAIN text differs:\n%s\nvs\n%s", Format(frozen), Format(twin))
	}
	if err := Validate(frozen); err != nil {
		t.Errorf("Validate(frozen) = %v", err)
	}
}

// TestFreezeKeepsInvalidTreesInvalid: freezing caches schemas, never a
// verdict, so an illegal subtree — and everything above it — keeps failing
// Validate with the same error.
func TestFreezeKeepsInvalidTreesInvalid(t *testing.T) {
	c := empDept(t)
	bad := scan(t, c, "emp", "e")
	bad.Filter = []expr.Expr{expr.NewCmp(expr.GT, expr.Col("zz", "q"), expr.IntLit(1))}
	good := scan(t, c, "dept", "d")
	top := &Join{L: bad, R: good}
	want := Validate(top)
	if want == nil {
		t.Fatal("test tree is legal")
	}
	Freeze(top)
	if got := Validate(top); got == nil || got.Error() != want.Error() {
		t.Errorf("after Freeze Validate = %v, want %v", got, want)
	}
	if Validate(bad) == nil || Validate(good) != nil {
		t.Errorf("verdicts after Freeze: bad scan %v, good scan %v", Validate(bad), Validate(good))
	}
}
