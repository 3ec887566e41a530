package exec

import (
	"fmt"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// aggGroups is the number of non-NULL groups of aggTestEnv's table; the
// group k = -1 holds only NULL inputs.
const aggGroups = 700

// aggTestEnv stores t(k INT, vi INT, vf FLOAT, vm) in a pool of poolPages:
// 3 000 rows in aggGroups groups, vi NULL on every 7th row and vf on every
// 5th, plus three rows of group -1 whose vi, vf and vm are all NULL. Every
// vf is a multiple of 0.5 and every sum small, so float sums are exact in
// any order. vm mixes kinds, which the catalog would refuse, so the rows go
// to the file directly: it is an INT on rows 0–699, 1 400–2 099 and from
// 2 800, a FLOAT of no exact binary form on the others, and NULL on every
// 11th. A group's rows are 700 apart, so the groups of rows 0–323 switch
// from INT to FLOAT inside the first batch of 1 024.
func aggTestEnv(t *testing.T, poolPages int) (*storage.Store, *catalog.Table) {
	t.Helper()
	st := storage.NewStore(poolPages)
	tbl := &catalog.Table{Name: "t", File: st.CreateFile("t"), Schema: schema.Schema{
		{ID: schema.ColID{Rel: "t", Name: "k"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "t", Name: "vi"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "t", Name: "vf"}, Type: types.KindFloat},
		{ID: schema.ColID{Rel: "t", Name: "vm"}, Type: types.KindFloat},
	}}
	insert := func(row types.Row) {
		if err := st.Append(tbl.File, row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		vi, vf := types.NewInt(int64(i%13-6)), types.NewFloat(float64(i%50)-20.5)
		if i%7 == 0 {
			vi = types.Null()
		}
		if i%5 == 0 {
			vf = types.Null()
		}
		vm := types.NewInt(int64(i%17 - 8))
		switch {
		case i%11 == 0:
			vm = types.Null()
		case i/700%2 == 1:
			vm = types.NewFloat(float64(i%23)*0.1 - 1.05)
		}
		insert(types.Row{types.NewInt(int64(i * 37 % aggGroups)), vi, vf, vm})
	}
	for i := 0; i < 3; i++ {
		insert(types.Row{types.NewInt(-1), types.Null(), types.Null(), types.Null()})
	}
	if err := st.Flush(tbl.File); err != nil {
		t.Fatal(err)
	}
	return st, tbl
}

// aggState is a plain Go fold of one column of one group.
type aggState struct {
	n        int64
	sum      float64
	min, max float64
}

func (s *aggState) add(v types.Value) {
	if v.IsNull() {
		return
	}
	f := v.Float()
	if s.n == 0 || f < s.min {
		s.min = f
	}
	if s.n == 0 || f > s.max {
		s.max = f
	}
	s.n++
	s.sum += f
}

// TestAggregatesAgainstReference runs AVG beside SUM, COUNT, MIN, MAX and
// a boxed MEDIAN — so AVG's two state slots sit between one-slot states
// and boxed ones — through hash and sort aggregation, in memory and with a
// spilling hash table, at batch sizes 1, 7 and the default. Every run must
// equal the reference executor's bag and the values a plain Go fold gives,
// NULL inputs skipped and the all-NULL group yielding NULL (COUNT 0). SUM,
// AVG, MIN and MAX also run over vm, whose kind switches from INT to FLOAT
// within a group, and SUM and MAX over computed arguments; those, and every
// other column, must be bit-identical to batch size 1's. In the spill
// regime the group table overflows inside the first batch.
func TestAggregatesAgainstReference(t *testing.T) {
	agg := func(k expr.AggKind, col, out string) expr.Agg {
		a := expr.Agg{Kind: k, Out: schema.ColID{Rel: "g", Name: out}}
		if col != "" {
			a.Arg = expr.Col("t", col)
		}
		return a
	}
	computed := func(k expr.AggKind, arg expr.Expr, out string) expr.Agg {
		return expr.Agg{Kind: k, Arg: arg, Out: schema.ColID{Rel: "g", Name: out}}
	}
	aggs := []expr.Agg{
		agg(expr.AggSum, "vi", "si"),
		agg(expr.AggAvg, "vi", "ai"),
		agg(expr.AggCount, "vf", "cf"),
		agg(expr.AggAvg, "vf", "af"),
		agg(expr.AggMedian, "vi", "mi"),
		agg(expr.AggMin, "vf", "lo"),
		agg(expr.AggMax, "vi", "hi"),
		agg(expr.AggSum, "vf", "sf"),
		agg(expr.AggCountStar, "", "n"),
		// Checked against batch size 1 and the reference executor only.
		agg(expr.AggSum, "vm", "sm"),
		agg(expr.AggAvg, "vm", "am"),
		agg(expr.AggMin, "vm", "lm"),
		agg(expr.AggMax, "vm", "hm"),
		computed(expr.AggSum, expr.NewArith(expr.Mul, expr.Col("t", "vf"), expr.FloatLit(0.1)), "sc"),
		computed(expr.AggMax, expr.NewArith(expr.Sub, expr.Col("t", "vi"), expr.Col("t", "vm")), "hc"),
	}
	for _, regime := range []struct {
		name  string
		pool  int
		spill bool // the hash aggregation must write partitions
	}{{"memory", 4096, false}, {"spill", 2, true}} {
		st, tbl := aggTestEnv(t, regime.pool)
		all, err := Naive(st, &lplan.Scan{Alias: "t", Table: tbl}, nil)
		if err != nil {
			t.Fatal(err)
		}
		vi, vf := map[int64]*aggState{}, map[int64]*aggState{}
		rows := map[int64]int64{}
		for _, r := range all.Rows {
			k := r[0].Int()
			if vi[k] == nil {
				vi[k], vf[k] = &aggState{}, &aggState{}
			}
			vi[k].add(r[1])
			vf[k].add(r[2])
			rows[k]++
		}
		if regime.spill {
			// The table overflows at the group whose accounted bytes pass
			// the budget: its first row must fall inside a batch.
			perGroup := types.NewInt(0).DiskWidth() + 8*len(aggs)
			fit := regime.pool * storage.PageSize / perGroup
			seen := map[int64]bool{}
			for i, r := range all.Rows {
				if seen[r[0].Int()] = true; len(seen) == fit+1 {
					if i%DefaultBatchSize == 0 {
						t.Fatalf("the group table overflows at row %d, a batch boundary", i)
					}
					break
				}
			}
		}
		for _, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
			plan := &lplan.GroupBy{In: &lplan.Scan{Alias: "t", Table: tbl},
				GroupCols: []schema.ColID{{Rel: "t", Name: "k"}}, Aggs: aggs, Method: m}
			oracle, err := Naive(st, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			var first *Result
			for _, bs := range []int{1, 7, DefaultBatchSize} {
				name := fmt.Sprintf("%s/%v/batch=%d", regime.name, m, bs)
				before := st.Stats()
				got, err := New(st).WithBatchSize(bs).Run(plan)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if spilled := st.Stats().Sub(before).Writes > 0; m == lplan.AggHash && spilled != regime.spill {
					t.Errorf("%s: spilled=%v, want %v", name, spilled, regime.spill)
				}
				if !BagEqual(got, oracle) {
					t.Fatalf("%s: rows differ from the reference executor's", name)
				}
				if len(got.Rows) != aggGroups+1 {
					t.Fatalf("%s: %d groups, want %d", name, len(got.Rows), aggGroups+1)
				}
				if first == nil {
					first = got
				}
				for j, r := range got.Rows {
					k := r[0].Int()
					i, f := vi[k], vf[k]
					want := types.Row{r[0],
						sumOf(i, types.KindInt), avgOf(i), types.NewInt(f.n), avgOf(f), r[5],
						bestOf(f.n, types.NewFloat(f.min)), bestOf(i.n, types.NewInt(int64(i.max))),
						sumOf(f, types.KindFloat), types.NewInt(rows[k])}
					for c := range want {
						if w := want[c]; w.K != r[c].K || !types.Equal(w, r[c]) {
							t.Fatalf("%s: group %d column %d is %v (%s), want %v (%s)",
								name, k, c, r[c], r[c].K, w, w.K)
						}
					}
					for c, v := range first.Rows[j] {
						if !sameBits(r[c], v) {
							t.Fatalf("%s: group %d column %d is %v (%s), at batch size 1 %v (%s)",
								name, k, c, r[c], r[c].K, v, v.K)
						}
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same value to the bit: one kind
// and one payload.
func sameBits(a, b types.Value) bool {
	if a.K == types.KindString {
		return b.K == types.KindString && a.S() == b.S()
	}
	return a.K == b.K && a.I == b.I
}

// sumOf is SUM over a fold of a column of kind k: NULL over no input.
func sumOf(s *aggState, k types.Kind) types.Value {
	if s.n == 0 {
		return types.Null()
	}
	if k == types.KindInt {
		return types.NewInt(int64(s.sum))
	}
	return types.NewFloat(s.sum)
}

// avgOf is AVG over a fold: NULL over no input.
func avgOf(s *aggState) types.Value {
	if s.n == 0 {
		return types.Null()
	}
	return types.NewFloat(s.sum / float64(s.n))
}

// bestOf is MIN or MAX: v, or NULL over no input.
func bestOf(n int64, v types.Value) types.Value {
	if n == 0 {
		return types.Null()
	}
	return v
}
