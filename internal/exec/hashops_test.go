package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

func negZero() float64 { z := 0.0; return -z }

// otherNaN is a NaN whose bits are not math.NaN's.
func otherNaN() float64 { return math.Float64frombits(0xfff8000000000000) }

// joinEnv is two tables l(k, v) and r(k, w) of nL and nR rows. Each draws
// its keys from `keys` values (every row its own when the table has no more
// rows than that); the two ranges overlap in two thirds, so keys repeat and
// dangle on both sides, and with nulls set a tenth of the rows have none.
// With pad set each table holds a VARCHAR column p between the two, which
// its scans project away: l(k, p, v) and r(k, p, w) scanned as l(k, v) and
// r(k, w).
type joinEnv struct {
	store *storage.Store
	l, r  *catalog.Table
	pad   bool
}

// keyKind is what a joinEnv's keys are: INTs, VARCHARs, INTs spread over
// 2^40, which no dense key table spans, INTs six apart, more than four a
// key, which a dense table spans up to its floor of 2^15 (5 461 keys), or
// FLOATs (floatKey).
type keyKind int

const (
	keyInt keyKind = iota
	keyString
	keySparse
	keySpread
	keyFloat
)

// floatKey is the FLOAT key of key number i: i as a float, but at every
// 50th number one of the values an order most easily gets wrong, in turn:
// two NaN payloads, 0.0, -0.0, +Inf and -Inf. Both tables of a joinEnv
// draw some of each, so NaN meets the other NaN and 0.0 meets -0.0.
func floatKey(i int64) float64 {
	if i%50 != 0 {
		return float64(i)
	}
	return [...]float64{math.NaN(), otherNaN(), 0, negZero(), math.Inf(1), math.Inf(-1)}[i/50%6]
}

func newJoinEnv(t testing.TB, poolPages, nL, nR, keys int, kind keyKind, nulls, pad bool) *joinEnv {
	t.Helper()
	st := storage.NewStore(poolPages)
	c := catalog.New(st)
	colKind := types.KindInt
	switch kind {
	case keyString:
		colKind = types.KindString
	case keyFloat:
		colKind = types.KindFloat
	}
	rnd := rand.New(rand.NewSource(5))
	load := func(name, payload string, n, shift int) *catalog.Table {
		cols := []schema.Column{{ID: schema.ColID{Name: "k"}, Type: colKind}}
		if pad {
			cols = append(cols, schema.Column{ID: schema.ColID{Name: "p"}, Type: types.KindString})
		}
		tbl, err := c.CreateTable(name, append(cols, schema.Column{ID: schema.ColID{Name: payload}, Type: types.KindInt}), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := types.NewInt(int64(shift + i))
			if keys < n {
				k.I = int64(shift + rnd.Intn(keys))
			}
			switch kind {
			case keyString:
				k = types.NewString(fmt.Sprintf("key-%06d", k.I))
			case keySparse:
				k.I *= (1 << 40) / int64(keys)
			case keySpread:
				k.I *= 6
			case keyFloat:
				k = types.NewFloat(floatKey(k.I))
			}
			if nulls && rnd.Intn(10) == 0 {
				k = types.Null()
			}
			row := types.Row{k}
			if pad {
				row = append(row, types.NewString(fmt.Sprintf("pad-%024d", i)))
			}
			if err := c.Insert(tbl, append(row, types.NewInt(int64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		tbl, _ = c.Table(name)
		return tbl
	}
	return &joinEnv{store: st, l: load("l", "v", nL, 0), r: load("r", "w", nR, keys/3), pad: pad}
}

// scan returns the scan of the table with the alias l or r: its two
// columns k and v (or w), projected when the table is padded.
func (e *joinEnv) scan(alias string) *lplan.Scan {
	s := &lplan.Scan{Alias: alias, Table: e.l}
	payload := "v"
	if alias == "r" {
		s.Table, payload = e.r, "w"
	}
	if e.pad {
		s.Proj = []schema.ColID{{Rel: alias, Name: "k"}, {Rel: alias, Name: payload}}
	}
	return s
}

// joinResidual is what a joinEnv plan tests beside its key.
type joinResidual int

const (
	noResidual    joinResidual = iota
	pairResidual               // l.v < r.w
	buildResidual              // r.w > 400: the build input's alone
	bothResiduals              // both
)

func (j joinResidual) String() string {
	return [...]string{"none", "pair", "build", "pair+build"}[j]
}

// holds reports whether the pair (l, r) of rows (k, v) and (k, w) passes.
func (j joinResidual) holds(l, r types.Row) bool {
	return (j != pairResidual && j != bothResiduals || l[1].I < r[1].I) &&
		(j != buildResidual && j != bothResiduals || r[1].I > 400)
}

func (e *joinEnv) plan(jt lplan.JoinType, res joinResidual) *lplan.Join {
	preds := []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k"))}
	if res == pairResidual || res == bothResiduals {
		preds = append(preds, expr.NewCmp(expr.LT, expr.Col("l", "v"), expr.Col("r", "w")))
	}
	if res == buildResidual || res == bothResiduals {
		preds = append(preds, expr.NewCmp(expr.GT, expr.Col("r", "w"), expr.IntLit(400)))
	}
	return &lplan.Join{L: e.scan("l"), R: e.scan("r"), Type: jt, Preds: preds, Method: lplan.JoinHash}
}

// wantHashJoin spells out the order a hash join emits rows in: probe rows
// in arrival order, each with its matches in build order or padded, then
// (FULL) the unmatched build rows in build order — per partition pair, in
// partition order, on the grace path.
func wantHashJoin(l, r []types.Row, jt lplan.JoinType, res joinResidual, grace bool) []types.Row {
	parts := 1
	partsOf := func(rows []types.Row) []int {
		of := make([]int, len(rows))
		for i, row := range rows {
			if grace {
				of[i] = partitionOf(row.AppendKey(nil, []int{0}))
			}
		}
		return of
	}
	if grace {
		parts = spillPartitions
	}
	lPart, rPart := partsOf(l), partsOf(r)
	nulls := types.Row{types.Null(), types.Null()}
	var out []types.Row
	for p := 0; p < parts; p++ {
		matched := map[int]bool{}
		for li, lr := range l {
			if lPart[li] != p {
				continue
			}
			hit := false
			for ri, rr := range r {
				if rPart[ri] != p || lr[0].IsNull() || rr[0].IsNull() || !types.Equal(lr[0], rr[0]) || !res.holds(lr, rr) {
					continue
				}
				hit, matched[ri] = true, true
				out = append(out, append(lr.Clone(), rr...))
			}
			if !hit && jt.Outer() {
				out = append(out, append(lr.Clone(), nulls...))
			}
		}
		for ri, rr := range r {
			if jt == lplan.JoinFull && rPart[ri] == p && !matched[ri] {
				out = append(out, append(nulls.Clone(), rr...))
			}
		}
	}
	return out
}

// TestHashJoinOrderAndIO runs every join type, with no residual, a pair
// residual, a residual on the build input alone and both, in memory and on
// the grace path at batch sizes 1, 3 and 1024, over scans that emit their
// tables' rows and over scans that project a padded table's: the rows must
// come out in exactly the order wantHashJoin spells out (so also the
// oracle's bag), and the page IO — which on the grace path is the spill
// files' — must not depend on the batch size and must equal the counts the
// map-based join produced. Over projecting scans the hash join reads the
// scans' stored rows; on the grace path its page IO, spill pages included,
// and every operator's share of it must be those of the scans that carved
// projected rows for it.
func TestHashJoinOrderAndIO(t *testing.T) {
	for _, regime := range []struct {
		name string
		pool int
		pad  bool
		io   storage.IOStats // of one run from a cold pool, any join type
		ops  string          // the join's, l's and r's reads/writes/hits (opIO)
	}{
		{"memory", 64, false, storage.IOStats{Reads: 11}, "0/0/0 5/0/1 6/0/1"},
		{"grace", 2, false, storage.IOStats{Reads: 43, Writes: 32}, "32/32/0 5/0/1 6/0/1"},
		{"memory/project", 64, true, storage.IOStats{Reads: 30}, "0/0/0 14/0/1 16/0/1"},
		{"grace/project", 2, true, storage.IOStats{Reads: 62, Writes: 32}, "32/32/0 14/0/1 16/0/1"},
		// Ten pages hold the build's projected rows but not its stored
		// ones: the budget must count the projected width.
		{"budget/project", 10, true, storage.IOStats{Reads: 30}, "0/0/0 14/0/1 16/0/1"},
	} {
		e := newJoinEnv(t, regime.pool, 1200, 1400, 400, keyInt, true, regime.pad)
		l, err := Naive(e.store, e.scan("l"), nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Naive(e.store, e.scan("r"), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, jt := range []lplan.JoinType{lplan.JoinInner, lplan.JoinLeft, lplan.JoinFull} {
			for _, res := range []joinResidual{noResidual, pairResidual, buildResidual, bothResiduals} {
				plan := e.plan(jt, res)
				want := wantHashJoin(l.Rows, r.Rows, jt, res, strings.HasPrefix(regime.name, "grace"))
				oracle, err := Naive(e.store, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !BagEqual(&Result{Rows: want}, oracle) {
					t.Fatalf("%s/%s/residual=%v: the expected order is not the oracle's bag", regime.name, jt, res)
				}
				for _, bs := range []int{1, 3, 1024} {
					name := fmt.Sprintf("%s/%s/residual=%v/batch=%d", regime.name, jt, res, bs)
					e.store.ForceDropCaches()
					before := e.store.Stats()
					got, col, err := runAttributed(e.store, plan, bs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if io := e.store.Stats().Sub(before); io != regime.io {
						t.Errorf("%s: page IO %+v, want %+v", name, io, regime.io)
					}
					if ops := opIO(col, plan); ops != regime.ops {
						t.Errorf("%s: per-operator IO %s, want %s", name, ops, regime.ops)
					}
					if live := e.store.LiveTempFiles(); len(live) != 0 {
						t.Errorf("%s: spill files left behind: %v", name, live)
					}
					if len(got.Rows) != len(want) {
						t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want))
					}
					for i := range want {
						if types.CompareRows(got.Rows[i], want[i], []int{0, 1, 2, 3}) != 0 {
							t.Fatalf("%s: row %d is %v, want %v", name, i, got.Rows[i], want[i])
						}
					}
				}
			}
		}
	}
}

// newGroupEnv is joinEnv's l(k, v) alone, n rows in `groups` groups, under
// a hash GROUP BY k computing SUM(v) and COUNT(*). The plan carries the
// group count as its group estimate, as every GroupBy the search emits
// carries the model's (lplan.GroupBy.Groups).
func newGroupEnv(b *testing.B, n, groups int, kind keyKind) (*storage.Store, *lplan.GroupBy) {
	e := newJoinEnv(b, 4096, n, 0, groups, kind, false, false)
	return e.store, &lplan.GroupBy{
		In:        e.scan("l"),
		GroupCols: []schema.ColID{{Rel: "l", Name: "k"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.Col("l", "v"), Out: schema.ColID{Rel: "g", Name: "s"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
		},
		Method: lplan.AggHash,
		Groups: float64(groups),
	}
}

// drain runs the plan to completion the way the engine does: through a
// cursor, without keeping the rows.
func drain(b *testing.B, st *storage.Store, n lplan.Node) (rows int) {
	cur, err := New(st).OpenCursor(n)
	if err != nil {
		b.Fatal(err)
	}
	defer cur.Close()
	for {
		_, ok, err := cur.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows++
	}
}

// benchKeyKinds are the keys the hash operators are timed on: INTs dense
// enough for a direct index, VARCHARs, INTs spread over 2^40, which keep
// the key table hashed, and INTs six apart, which a direct index holds by
// its floor up to 5 461 keys and not beyond.
var benchKeyKinds = []struct {
	name string
	kind keyKind
}{{"int", keyInt}, {"string", keyString}, {"int-sparse", keySparse}, {"int-spread", keySpread}}

// BenchmarkHashAgg aggregates 24 000 rows, all in the pool, into 25, 4 775
// and 24 000 groups (the repo benchmark's nation, partkey and one-per-row
// shapes) on each of benchKeyKinds.
func BenchmarkHashAgg(b *testing.B) {
	for _, kind := range benchKeyKinds {
		for _, groups := range []int{25, 4775, 24000} {
			b.Run(fmt.Sprintf("%s/groups=%d", kind.name, groups), func(b *testing.B) {
				st, plan := newGroupEnv(b, 24000, groups, kind.kind)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					drain(b, st, plan)
				}
				b.ReportMetric(24000, "rows/op")
			})
		}
	}
}

// BenchmarkHashJoin builds on 24 000 rows and probes with 24 000, all in
// the pool, with 25, 4 775 and 24 000 distinct keys per side, on each of
// benchKeyKinds.
func BenchmarkHashJoin(b *testing.B) {
	for _, kind := range benchKeyKinds {
		for _, keys := range []int{25, 4775, 24000} {
			b.Run(fmt.Sprintf("%s/keys=%d", kind.name, keys), func(b *testing.B) {
				e := newJoinEnv(b, 4096, 24000, 24000, keys, kind.kind, false, false)
				plan := e.plan(lplan.JoinInner, noResidual)
				if keys == 25 {
					// 24 000 x 24 000 rows over 25 keys is 15 million
					// output rows; probe with 25 rows instead, each
					// walking a chain of about a thousand.
					plan.L.(*lplan.Scan).Filter = []expr.Expr{expr.NewCmp(expr.LT, expr.Col("l", "v"), expr.IntLit(25))}
				}
				out := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = drain(b, e.store, plan)
				}
				b.ReportMetric(float64(out), "rows/op")
			})
		}
	}
}
