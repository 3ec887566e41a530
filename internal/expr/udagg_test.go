package expr

import (
	"math"
	"math/rand"
	"testing"

	"aggview/internal/schema"
	"aggview/internal/types"
)

func TestStdDevAccumulator(t *testing.T) {
	spec, ok := LookupUserAggregate("STDDEV")
	if !ok {
		t.Fatal("stddev not registered")
	}
	acc := spec.New()
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		acc.Add(types.NewFloat(v))
	}
	// Known population stddev of this classic sequence is 2.
	if got := acc.Result().Float(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("stddev = %g, want 2", got)
	}
	// Empty group yields NULL.
	if !spec.New().Result().IsNull() {
		t.Fatalf("empty stddev should be NULL")
	}
}

// TestStdDevDecomposeEquivalence mirrors the built-in decompose property:
// random sub-grouping, partials coalesced, final expression rebuilt —
// equals the direct accumulator.
func TestStdDevDecomposeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	agg := Agg{Kind: AggUser, User: "stddev", Arg: Col("t", "x"),
		Out: schema.ColID{Rel: "g", Name: "sd"}}
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(30)
		vals := make([]types.Value, n)
		for i := range vals {
			vals[i] = types.NewFloat(float64(r.Intn(1000)) / 10)
		}
		parts, final, err := agg.DecomposeAgg()
		if err != nil {
			t.Fatal(err)
		}
		direct := agg.NewAccumulator()
		for _, v := range vals {
			direct.Add(v)
		}
		groups := make([][]types.Value, 1+r.Intn(5))
		for _, v := range vals {
			g := r.Intn(len(groups))
			groups[g] = append(groups[g], v)
		}
		coal := make([]Accumulator, len(parts))
		for i, p := range parts {
			coal[i] = p.Coalesce.NewAccumulator()
		}
		argSchema := schema.Schema{{ID: schema.ColID{Rel: "t", Name: "x"}, Type: types.KindFloat}}
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			for i, p := range parts {
				pa := p.Partial.Kind.NewAccumulator()
				fn, err := Compile(p.Partial.Arg, argSchema)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range g {
					pv, err := fn(types.Row{v}, nil)
					if err != nil {
						t.Fatal(err)
					}
					pa.Add(pv)
				}
				coal[i].Add(pa.Result())
			}
		}
		var sch schema.Schema
		row := make(types.Row, len(parts))
		for i, p := range parts {
			sch = append(sch, schema.Column{ID: p.Partial.Out, Type: types.KindFloat})
			row[i] = coal[i].Result()
		}
		c, err := Compile(final, sch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := direct.Result()
		if math.Abs(got.Float()-want.Float()) > 1e-6*(want.Float()+1) {
			t.Fatalf("trial %d: coalesced %v != direct %v", trial, got, want)
		}
	}
}

func TestUserAggDispatch(t *testing.T) {
	a := Agg{Kind: AggUser, User: "stddev", Arg: Col("t", "x"),
		Out: schema.ColID{Rel: "g", Name: "sd"}}
	if !a.Decomposable() {
		t.Errorf("stddev should be decomposable")
	}
	s := schema.Schema{{ID: schema.ColID{Rel: "t", Name: "x"}, Type: types.KindFloat}}
	if a.ResultType(s) != types.KindFloat {
		t.Errorf("ResultType = %v", a.ResultType(s))
	}
	if got := a.String(); got != "STDDEV(t.x) AS g.sd" {
		t.Errorf("String = %q", got)
	}
	// Builtins still dispatch through the same methods.
	b := Agg{Kind: AggSum, Arg: Col("t", "x"), Out: schema.ColID{Rel: "g", Name: "s"}}
	if !b.Decomposable() || b.ResultType(s) != types.KindFloat {
		t.Errorf("builtin dispatch broken")
	}
}

func TestUnregisteredUserAggDegrades(t *testing.T) {
	a := Agg{Kind: AggUser, User: "nosuch$agg", Out: schema.ColID{Rel: "g", Name: "x"}}
	if err := a.Check(); err == nil {
		t.Fatalf("Check should reject an unregistered user aggregate")
	}
	// The non-validated paths must degrade, never panic: NULL accumulator,
	// NULL result type, not decomposable, decompose error.
	acc := a.NewAccumulator()
	acc.Add(types.NewInt(1))
	if got := acc.Result(); !got.IsNull() {
		t.Errorf("fallback accumulator returned %v, want NULL", got)
	}
	if got := a.ResultType(nil); got != types.KindNull {
		t.Errorf("ResultType = %v, want KindNull", got)
	}
	if a.Decomposable() {
		t.Errorf("unregistered aggregate reported decomposable")
	}
	if _, _, err := a.DecomposeAgg(); err == nil {
		t.Errorf("DecomposeAgg should fail for unregistered aggregate")
	}
}

func TestUnknownAggKindDegrades(t *testing.T) {
	a := Agg{Kind: AggKind(99), Out: schema.ColID{Rel: "g", Name: "x"}}
	if err := a.Check(); err == nil {
		t.Fatalf("Check should reject an unknown aggregate kind")
	}
	acc := a.NewAccumulator()
	acc.Add(types.NewInt(1))
	if got := acc.Result(); !got.IsNull() {
		t.Errorf("fallback accumulator returned %v, want NULL", got)
	}
}

func TestRegisterAggregateValidation(t *testing.T) {
	if err := RegisterAggregate(UserAggSpec{Name: "avg", New: func() Accumulator { return AggCount.NewAccumulator() }}); err == nil {
		t.Errorf("builtin name accepted")
	}
	if err := RegisterAggregate(UserAggSpec{Name: "abs", New: func() Accumulator { return AggCount.NewAccumulator() }}); err == nil {
		t.Errorf("scalar fn name accepted")
	}
	if err := RegisterAggregate(UserAggSpec{Name: "noop"}); err == nil {
		t.Errorf("nil factory accepted")
	}
	if err := RegisterAggregate(UserAggSpec{Name: "MyAgg2", ResultKind: types.KindInt,
		New: func() Accumulator { return AggCount.NewAccumulator() }}); err != nil {
		t.Fatalf("valid registration failed: %v", err)
	}
	if _, ok := LookupUserAggregate("myagg2"); !ok {
		t.Errorf("lookup after registration failed")
	}
}

func TestFnExpr(t *testing.T) {
	s := schema.Schema{
		{ID: schema.ColID{Rel: "t", Name: "f"}, Type: types.KindFloat},
		{ID: schema.ColID{Rel: "t", Name: "i"}, Type: types.KindInt},
	}
	sqrt := NewFn("SQRT", Col("t", "f"))
	if sqrt.String() != "SQRT(t.f)" || sqrt.Type(s) != types.KindFloat {
		t.Errorf("sqrt meta wrong: %s %v", sqrt, sqrt.Type(s))
	}
	absI := NewFn("ABS", Col("t", "i"))
	if absI.Type(s) != types.KindInt {
		t.Errorf("ABS(int) type = %v", absI.Type(s))
	}
	c, err := Compile(sqrt, s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c(types.Row{types.NewFloat(16), types.NewInt(0)}, nil)
	if err != nil || v.Float() != 4 {
		t.Fatalf("sqrt(16) = %v %v", v, err)
	}
	if _, err := c(types.Row{types.NewFloat(-1), types.NewInt(0)}, nil); err == nil {
		t.Errorf("sqrt(-1) should error")
	}
	cAbs, err := Compile(NewFn("ABS", Col("t", "f")), s)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = cAbs(types.Row{types.NewFloat(-2.5), types.NewInt(0)}, nil)
	if v.Float() != 2.5 {
		t.Errorf("abs(-2.5) = %v", v)
	}
	cAbsI, _ := Compile(absI, s)
	v, _ = cAbsI(types.Row{types.NewFloat(0), types.NewInt(-7)}, nil)
	if v.K != types.KindInt || v.I != 7 {
		t.Errorf("abs(-7) = %v", v)
	}
	if _, err := Compile(NewFn("NOSUCH", Col("t", "f")), s); err == nil {
		t.Errorf("unknown fn compiled")
	}
	// Substitution preserves the function.
	sub := Substitute(sqrt, map[schema.ColID]Expr{{Rel: "t", Name: "f"}: FloatLit(9)})
	c2, _ := Compile(sub, s)
	v, _ = c2(types.Row{types.NewFloat(0), types.NewInt(0)}, nil)
	if v.Float() != 3 {
		t.Errorf("substituted sqrt = %v", v)
	}
	if !IsScalarFn("SQRT") || IsScalarFn("FOO") {
		t.Errorf("IsScalarFn wrong")
	}
	if len(ScalarFns()) != 2 {
		t.Errorf("ScalarFns = %v", ScalarFns())
	}
}
