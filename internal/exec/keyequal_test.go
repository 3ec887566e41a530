package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Grouping and joining must call the same keys equal that a WHERE
// comparison does. Three cases used to differ. Through a key encoding that
// ran every number through float64, distinct INTs above 2^53 merged into
// one group and joined each other, and FLOAT 0.0 and -0.0, which compare
// equal, landed in two groups. And NaN, which the comparison called equal
// to every number, hashed by its bits: NaN now orders above every number
// and equal to itself, and every NaN hashes and encodes as one.

func keyEqualEnv(t *testing.T) (st *storage.Store, big, one, zeros, nans *catalog.Table) {
	t.Helper()
	st = storage.NewStore(16)
	c := catalog.New(st)
	load := func(name string, kind types.Kind, rows ...types.Row) *catalog.Table {
		tbl, err := c.CreateTable(name, []schema.Column{
			{ID: schema.ColID{Name: "k"}, Type: kind},
			{ID: schema.ColID{Name: "v"}, Type: types.KindInt},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := c.Insert(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		tbl, _ = c.Table(name)
		return tbl
	}
	const p53 = int64(1) << 53
	big = load("big", types.KindInt,
		types.Row{types.NewInt(p53), types.NewInt(1)},
		types.Row{types.NewInt(p53 + 1), types.NewInt(2)},
		types.Row{types.NewInt(p53 + 1), types.NewInt(3)})
	one = load("one", types.KindInt, types.Row{types.NewInt(p53), types.NewInt(10)})
	zeros = load("zeros", types.KindFloat,
		types.Row{types.NewFloat(0), types.NewInt(1)},
		types.Row{types.NewFloat(negZero()), types.NewInt(2)},
		types.Row{types.NewFloat(1.5), types.NewInt(3)})
	nans = load("nans", types.KindFloat,
		types.Row{types.NewFloat(math.NaN()), types.NewInt(1)},
		types.Row{types.NewFloat(1.5), types.NewInt(2)},
		types.Row{types.NewFloat(otherNaN()), types.NewInt(3)},
		types.Row{types.NewFloat(math.Inf(1)), types.NewInt(4)})
	return st, big, one, zeros, nans
}

// rowsText renders a result order-insensitively, one "a b c" line per row.
func rowsText(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.K == types.KindFloat {
				v = types.NewFloat(v.F() + 0) // -0 prints as 0: which zero names the group is not the point
			}
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, " ")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestGroupingAndJoiningAgreeWithCompare(t *testing.T) {
	st, big, one, zeros, nans := keyEqualEnv(t)
	countBy := func(tbl *catalog.Table, m lplan.AggMethod) lplan.Node {
		return &lplan.GroupBy{
			In:        &lplan.Scan{Alias: "t", Table: tbl},
			GroupCols: []schema.ColID{{Rel: "t", Name: "k"}},
			Aggs:      []expr.Agg{{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}}},
			Method:    m,
		}
	}
	join := func(l, r *catalog.Table, m lplan.JoinMethod) lplan.Node {
		return &lplan.Join{
			L: &lplan.Scan{Alias: "a", Table: l}, R: &lplan.Scan{Alias: "b", Table: r},
			Preds:  []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("a", "k"), expr.Col("b", "k"))},
			Proj:   []schema.ColID{{Rel: "a", Name: "v"}, {Rel: "b", Name: "v"}},
			Method: m,
		}
	}
	const bigGroups = "9007199254740992 1\n9007199254740993 2"
	const zeroGroups = "0 2\n1.5 1"
	const nanGroups = "+Inf 1\n1.5 1\nNaN 2"
	const nanPairs = "1 1\n1 3\n2 2\n3 1\n3 3\n4 4"
	for _, tc := range []struct {
		name string
		plan lplan.Node
		want string
	}{
		{"hash-agg/int", countBy(big, lplan.AggHash), bigGroups},
		{"sort-agg/int", countBy(big, lplan.AggSort), bigGroups},
		{"hash-agg/zeros", countBy(zeros, lplan.AggHash), zeroGroups},
		{"sort-agg/zeros", countBy(zeros, lplan.AggSort), zeroGroups},
		{"hash-join/int", join(big, one, lplan.JoinHash), "1 10"},
		{"hash-join/int-build-big", join(one, big, lplan.JoinHash), "10 1"},
		{"merge-join/int", join(big, one, lplan.JoinMerge), "1 10"},
		{"hash-join/zeros", join(zeros, zeros, lplan.JoinHash), "1 1\n1 2\n2 1\n2 2\n3 3"},
		{"merge-join/zeros", join(zeros, zeros, lplan.JoinMerge), "1 1\n1 2\n2 1\n2 2\n3 3"},
		{"hash-agg/nans", countBy(nans, lplan.AggHash), nanGroups},
		{"sort-agg/nans", countBy(nans, lplan.AggSort), nanGroups},
		{"hash-join/nans", join(nans, nans, lplan.JoinHash), nanPairs},
		{"merge-join/nans", join(nans, nans, lplan.JoinMerge), nanPairs},
		{"block-nl/nans", join(nans, nans, lplan.JoinBlockNL), nanPairs},
		{"hash-join/nans-zeros", join(nans, zeros, lplan.JoinHash), "2 3"},
		{"merge-join/nans-zeros", join(nans, zeros, lplan.JoinMerge), "2 3"},
		{"block-nl/nans-zeros", join(nans, zeros, lplan.JoinBlockNL), "2 3"},
	} {
		for _, bs := range []int{1, DefaultBatchSize} {
			got, err := New(st).WithBatchSize(bs).Run(tc.plan)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if text := rowsText(got); text != tc.want {
				t.Errorf("%s at batch size %d:\n%s\nwant:\n%s", tc.name, bs, text, tc.want)
			}
		}
		oracle, err := Naive(st, tc.plan, nil)
		if err != nil {
			t.Fatalf("%s: Naive: %v", tc.name, err)
		}
		if text := rowsText(oracle); text != tc.want {
			t.Errorf("%s, the reference executor:\n%s\nwant:\n%s", tc.name, text, tc.want)
		}
	}
}

// TestAppendKeyAgreesWithEqual: the byte encoding that keys the reference
// executor's maps and view maintenance calls the same values
// equal as types.Equal, over the pool the key table is tested with.
func TestAppendKeyAgreesWithEqual(t *testing.T) {
	for _, a := range keyValuePool {
		for _, b := range keyValuePool {
			ka, kb := types.AppendKey(nil, a), types.AppendKey(nil, b)
			if types.Equal(a, b) != (string(ka) == string(kb)) {
				t.Errorf("%v / %v: Equal=%v, encodings %s", a, b, types.Equal(a, b), fmt.Sprintf("%x %x", ka, kb))
			}
		}
	}
}
