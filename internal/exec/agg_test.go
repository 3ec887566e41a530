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

// aggTestEnv loads t(k INT, vi INT, vf FLOAT) into a pool of poolPages:
// 3 000 rows in aggGroups groups, vi NULL on every 7th row and vf on every
// 5th, plus three rows of group -1 whose vi and vf are both NULL. Every vf
// is a multiple of 0.5 and every sum small, so float sums are exact in any
// order.
func aggTestEnv(t *testing.T, poolPages int) (*storage.Store, *catalog.Table) {
	t.Helper()
	st := storage.NewStore(poolPages)
	c := catalog.New(st)
	tbl, err := c.CreateTable("t", []schema.Column{
		{ID: schema.ColID{Name: "k"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "vi"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "vf"}, Type: types.KindFloat},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(row types.Row) {
		if err := c.Insert(tbl, row); err != nil {
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
		insert(types.Row{types.NewInt(int64(i * 37 % aggGroups)), vi, vf})
	}
	for i := 0; i < 3; i++ {
		insert(types.Row{types.NewInt(-1), types.Null(), types.Null()})
	}
	tbl, _ = c.Table("t")
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
// spilling hash table, at batch sizes 1 and the default. Every run must
// equal the reference executor's bag and the values a plain Go fold gives,
// NULL inputs skipped and the all-NULL group yielding NULL (COUNT 0).
func TestAggregatesAgainstReference(t *testing.T) {
	agg := func(k expr.AggKind, col, out string) expr.Agg {
		a := expr.Agg{Kind: k, Out: schema.ColID{Rel: "g", Name: out}}
		if col != "" {
			a.Arg = expr.Col("t", col)
		}
		return a
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
		for _, m := range []lplan.AggMethod{lplan.AggHash, lplan.AggSort} {
			plan := &lplan.GroupBy{In: &lplan.Scan{Alias: "t", Table: tbl},
				GroupCols: []schema.ColID{{Rel: "t", Name: "k"}}, Aggs: aggs, Method: m}
			oracle, err := Naive(st, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range []int{1, DefaultBatchSize} {
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
				for _, r := range got.Rows {
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
				}
			}
		}
	}
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
