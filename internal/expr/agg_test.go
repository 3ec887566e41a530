package expr

import (
	"math/rand"
	"testing"

	"aggview/internal/schema"
	"aggview/internal/types"
)

func TestAggKindStringAndLookup(t *testing.T) {
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN"} {
		k, ok := AggKindByName(name)
		if !ok {
			t.Fatalf("AggKindByName(%q) failed", name)
		}
		if k.String() != name {
			t.Errorf("%q round-trip = %q", name, k.String())
		}
	}
	if _, ok := AggKindByName("STDDEV"); ok {
		t.Errorf("unknown aggregate resolved")
	}
}

func TestDecomposableFlags(t *testing.T) {
	for _, k := range []AggKind{AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax} {
		if !k.Decomposable() {
			t.Errorf("%s should be decomposable", k)
		}
	}
	if AggMedian.Decomposable() {
		t.Errorf("MEDIAN must not be decomposable")
	}
}

func feed(acc Accumulator, vals ...types.Value) types.Value {
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Result()
}

func TestAccumulators(t *testing.T) {
	i := types.NewInt
	f := types.NewFloat

	if v := feed(AggCount.NewAccumulator(), i(1), i(2), types.Null()); v.Int() != 2 {
		t.Errorf("COUNT = %v", v)
	}
	if v := feed(AggCountStar.NewAccumulator(), i(1), i(2)); v.Int() != 2 {
		t.Errorf("COUNT(*) = %v", v)
	}
	if v := feed(AggSum.NewAccumulator(), i(1), i(2), i(3)); v.K != types.KindInt || v.I != 6 {
		t.Errorf("SUM int = %v", v)
	}
	if v := feed(AggSum.NewAccumulator(), i(1), f(0.5)); v.K != types.KindFloat || v.F != 1.5 {
		t.Errorf("SUM mixed = %v", v)
	}
	if v := feed(AggAvg.NewAccumulator(), i(2), i(4)); v.F != 3 {
		t.Errorf("AVG = %v", v)
	}
	if v := feed(AggMin.NewAccumulator(), i(5), i(2), i(9)); v.Int() != 2 {
		t.Errorf("MIN = %v", v)
	}
	if v := feed(AggMax.NewAccumulator(), i(5), i(2), i(9)); v.Int() != 9 {
		t.Errorf("MAX = %v", v)
	}
	if v := feed(AggMedian.NewAccumulator(), i(1), i(9), i(5)); v.F != 5 {
		t.Errorf("MEDIAN odd = %v", v)
	}
	if v := feed(AggMedian.NewAccumulator(), i(1), i(3)); v.F != 2 {
		t.Errorf("MEDIAN even = %v", v)
	}
}

func TestAccumulatorsEmptyGroups(t *testing.T) {
	if v := AggCount.NewAccumulator().Result(); v.Int() != 0 {
		t.Errorf("empty COUNT = %v, want 0", v)
	}
	for _, k := range []AggKind{AggSum, AggAvg, AggMin, AggMax, AggMedian} {
		if v := k.NewAccumulator().Result(); !v.IsNull() {
			t.Errorf("empty %s = %v, want NULL", k, v)
		}
	}
}

func TestSumFloatThenInt(t *testing.T) {
	v := feed(AggSum.NewAccumulator(), types.NewFloat(1.5), types.NewInt(2))
	if v.K != types.KindFloat || v.F != 3.5 {
		t.Errorf("SUM(1.5, 2) = %v", v)
	}
}

// TestDecomposeCoalesceEquivalence is the property behind the simple
// coalescing transformation: splitting any multiset of values into arbitrary
// sub-groups, computing partial aggregates, and coalescing them must equal
// the direct aggregate.
func TestDecomposeCoalesceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	kinds := []AggKind{AggSum, AggCount, AggCountStar, AggMin, AggMax, AggAvg}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(20)
		vals := make([]types.Value, n)
		for i := range vals {
			vals[i] = types.NewInt(int64(r.Intn(100)))
		}
		for _, k := range kinds {
			agg := Agg{Kind: k, Arg: Col("t", "x"), Out: schema.ColID{Rel: "g", Name: "o"}}
			if k == AggCountStar {
				agg.Arg = nil
			}
			parts, final, err := agg.Decompose()
			if err != nil {
				t.Fatalf("Decompose(%s): %v", k, err)
			}

			// Direct aggregate.
			direct := k.NewAccumulator()
			for _, v := range vals {
				direct.Add(v)
			}

			// Split into random sub-groups, compute partials, coalesce.
			groups := make([][]types.Value, 1+r.Intn(4))
			for _, v := range vals {
				g := r.Intn(len(groups))
				groups[g] = append(groups[g], v)
			}
			coalescers := make([]Accumulator, len(parts))
			for i, p := range parts {
				coalescers[i] = p.Coalesce.NewAccumulator()
			}
			for _, g := range groups {
				if len(g) == 0 {
					continue
				}
				for i, p := range parts {
					pa := p.Partial.Kind.NewAccumulator()
					for _, v := range g {
						pa.Add(v)
					}
					coalescers[i].Add(pa.Result())
				}
			}

			// Evaluate the final expression over the coalesced outputs.
			var sch schema.Schema
			row := make(types.Row, len(parts))
			for i, p := range parts {
				sch = append(sch, schema.Column{ID: p.Partial.Out, Type: types.KindFloat})
				row[i] = coalescers[i].Result()
			}
			c, err := Compile(final, sch)
			if err != nil {
				t.Fatalf("compile final for %s: %v", k, err)
			}
			got, err := c(row, nil)
			if err != nil {
				t.Fatalf("eval final for %s: %v", k, err)
			}
			want := direct.Result()
			if types.Compare(got, want) != 0 {
				t.Fatalf("%s over %d vals: coalesced %v != direct %v", k, n, got, want)
			}
		}
	}
}

func TestDecomposeMedianFails(t *testing.T) {
	agg := Agg{Kind: AggMedian, Arg: Col("t", "x"), Out: schema.ColID{Rel: "g", Name: "m"}}
	if _, _, err := agg.Decompose(); err == nil {
		t.Fatalf("MEDIAN decompose should fail")
	}
}

func TestAggString(t *testing.T) {
	a := Agg{Kind: AggAvg, Arg: Col("e2", "sal"), Out: schema.ColID{Rel: "b", Name: "Asal"}}
	if got := a.String(); got != "AVG(e2.sal) AS b.Asal" {
		t.Errorf("String = %q", got)
	}
	cs := Agg{Kind: AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}}
	if got := cs.String(); got != "COUNT(*) AS g.n" {
		t.Errorf("String = %q", got)
	}
}

func TestAggRename(t *testing.T) {
	a := Agg{Kind: AggSum, Arg: Col("e", "sal"), Out: schema.ColID{Rel: "v", Name: "s"}}
	b := a.Rename(map[string]string{"e": "x", "v": "w"})
	if b.Arg.String() != "x.sal" || b.Out.Rel != "w" {
		t.Errorf("Rename = %v", b)
	}
	if a.Arg.String() != "e.sal" {
		t.Errorf("Rename mutated original")
	}
}

func TestResultTypes(t *testing.T) {
	s := schema.Schema{
		{ID: schema.ColID{Rel: "t", Name: "i"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "t", Name: "f"}, Type: types.KindFloat},
	}
	if AggCount.ResultType(Col("t", "i"), s) != types.KindInt {
		t.Errorf("COUNT type")
	}
	if AggSum.ResultType(Col("t", "i"), s) != types.KindInt {
		t.Errorf("SUM int type")
	}
	if AggSum.ResultType(Col("t", "f"), s) != types.KindFloat {
		t.Errorf("SUM float type")
	}
	if AggAvg.ResultType(Col("t", "i"), s) != types.KindFloat {
		t.Errorf("AVG type")
	}
	if AggMin.ResultType(Col("t", "f"), s) != types.KindFloat {
		t.Errorf("MIN type")
	}
}
