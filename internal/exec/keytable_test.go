package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"aggview/internal/catalog"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// keyValuePool holds values of every kind, chosen so that Equal pairs of
// different spelling are drawn often: INT 2 / FLOAT 2.0, +0 / -0 / INT 0,
// and INTs around ±2^53, where float64 stops telling neighbours apart.
// FLOATs stay below 2^53 in magnitude: above it Compare rounds the INT side
// of a mixed pair, which makes Equal non-transitive and any reference moot.
var keyValuePool = func() []types.Value {
	pool := []types.Value{
		types.Null(), types.NewBool(false), types.NewBool(true),
		types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"),
		types.NewFloat(0), types.NewFloat(negZero()), types.NewFloat(0.5), types.NewFloat(-0.5),
	}
	for i := int64(-3); i <= 3; i++ {
		pool = append(pool, types.NewInt(i), types.NewFloat(float64(i)))
	}
	for _, base := range []int64{1 << 53, -(1 << 53)} {
		for d := int64(-2); d <= 2; d++ {
			pool = append(pool, types.NewInt(base+d))
		}
	}
	return pool
}()

func negZero() float64 { z := 0.0; return -z }

func TestHashAgreesWithEqual(t *testing.T) {
	for _, a := range keyValuePool {
		for _, b := range keyValuePool {
			a, b := a, b
			if types.Equal(a, b) && types.HashValue(&a) != types.HashValue(&b) {
				t.Errorf("%v and %v are Equal but hash apart", a, b)
			}
		}
	}
	// The batch hash combines the column hashes in key order.
	for _, a := range keyValuePool {
		for _, b := range keyValuePool {
			row, cols := types.Row{a, b}, []int{1, 0}
			want := types.HashCombine(types.HashValue(&b), types.HashValue(&a))
			if got := hashKeys([]types.Row{row}, cols, nil)[0]; got != want {
				t.Fatalf("hashKeys(%v) = %x, want %x", row, got, want)
			}
		}
	}
	// INTs that collide as float64 must still be told apart.
	lo, hi := types.NewInt(1<<53), types.NewInt(1<<53+1)
	if types.HashValue(&lo) != types.HashValue(&hi) {
		t.Fatalf("2^53 and 2^53+1 were expected to collide")
	}
	var tab keyTable
	tab.init(1, 0)
	for i, v := range []types.Value{lo, hi} {
		row, h := types.Row{v}, hashKeys([]types.Row{{v}}, []int{0}, nil)[0]
		if e := tab.lookup(h, row, []int{0}); e >= 0 {
			t.Fatalf("%v found as entry %d before its insert", v, e)
		}
		if e := tab.insert(h, row, []int{0}); e != i {
			t.Fatalf("%v inserted as entry %d, want %d", v, e, i)
		}
	}
}

// TestKeyTableAgainstMap drives the table and a map keyed by AppendKey with
// the same random keys — 1 to 3 columns, every kind, several thousand
// entries so the table resizes many times — and requires the same answer
// to every lookup, then the same key back for every entry.
func TestKeyTableAgainstMap(t *testing.T) {
	for width := 1; width <= 3; width++ {
		for _, intsFirst := range []bool{false, true} {
			if intsFirst && width != 1 {
				continue
			}
			t.Run(fmt.Sprintf("width=%d/intsFirst=%v", width, intsFirst), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(7 + width)))
				// Keys sit at scattered positions of a wider row.
				cols := r.Perm(width + 2)[:width]
				var (
					tab   keyTable
					ref   = map[string]int{}
					keys  []types.Row
					buf   []byte
					draws = 40000
				)
				tab.init(width, 0)
				for n := 0; n < draws; n++ {
					row := make(types.Row, width+2)
					for i := range row {
						switch {
						case intsFirst && n < draws/2:
							// A long INT-only prefix keeps the table on bare
							// int64 keys across many resizes before the
							// first key of another kind converts it.
							row[i] = types.NewInt(r.Int63n(3000))
						case r.Intn(3) == 0:
							row[i] = types.NewInt(r.Int63n(2000))
						case r.Intn(4) == 0:
							row[i] = types.NewString(fmt.Sprint("s", r.Intn(500)))
						default:
							row[i] = keyValuePool[r.Intn(len(keyValuePool))]
						}
					}
					if intsFirst && n == draws/2 && (!tab.intKeys || len(tab.slots) < 1024) {
						t.Fatalf("after %d INT keys: intKeys=%v, %d slots", n, tab.intKeys, len(tab.slots))
					}
					h := hashKeys([]types.Row{row}, cols, nil)[0]
					buf = row.AppendKey(buf[:0], cols)
					want, known := ref[string(buf)]
					got := tab.lookup(h, row, cols)
					if known != (got >= 0) || (known && got != want) {
						t.Fatalf("draw %d, key %v: table says entry %d, reference %d (known=%v)", n, row, got, want, known)
					}
					if !known {
						if e := tab.insert(h, row, cols); e != len(ref) {
							t.Fatalf("draw %d: inserted as entry %d, want %d", n, e, len(ref))
						}
						ref[string(buf)] = len(ref)
						keys = append(keys, row)
					}
				}
				if tab.len() != len(ref) || len(tab.slots) < 1024 {
					t.Fatalf("%d entries in %d slots, reference holds %d", tab.len(), len(tab.slots), len(ref))
				}
				if tab.intKeys {
					t.Fatalf("still on bare INT keys after keys of every kind")
				}
				var one [1]types.Value
				for e, row := range keys {
					key := tab.key(e, one[:])
					for i, c := range cols {
						if !types.Equal(key[i], row[c]) {
							t.Fatalf("entry %d holds %v, inserted %v at %v", e, key, row, cols)
						}
					}
				}
				// Reuse: an emptied table answers like a new one.
				tab.init(width, 0)
				if e := tab.lookup(hashKeys(keys[:1], cols, nil)[0], keys[0], cols); e >= 0 || tab.len() != 0 {
					t.Fatalf("emptied table still finds entry %d", e)
				}
			})
		}
	}
}

// TestKeyTableBareInts: a single-column table of INT keys keeps no values,
// answers a FLOAT probe that is Equal to one of them, and hands keys back.
func TestKeyTableBareInts(t *testing.T) {
	var tab keyTable
	tab.init(1, 100)
	cols := []int{0}
	for i := int64(0); i < 100; i++ {
		row := types.Row{types.NewInt(i * 3)}
		tab.insert(hashKeys([]types.Row{row}, cols, nil)[0], row, cols)
	}
	if !tab.intKeys || tab.keys != nil {
		t.Fatalf("intKeys=%v keys=%d values", tab.intKeys, len(tab.keys))
	}
	probe := types.Row{types.NewFloat(42)}
	if e := tab.lookup(hashKeys([]types.Row{probe}, cols, nil)[0], probe, cols); e != 14 {
		t.Fatalf("FLOAT 42 found entry %d, want 14", e)
	}
	var one [1]types.Value
	if k := tab.key(14, one[:]); len(k) != 1 || !types.Equal(k[0], types.NewInt(42)) || k[0].K != types.KindInt {
		t.Fatalf("entry 14 holds %v", k)
	}
}

// TestArenaSlabBytes states the size of an arena slab where a comment would
// go stale: a types.Value is 24 bytes, a slab 8192 of them.
func TestArenaSlabBytes(t *testing.T) {
	if got := unsafe.Sizeof(types.Value{}); got != 24 {
		t.Errorf("types.Value is %d bytes, 24 expected", got)
	}
	if got := arenaSlabValues * unsafe.Sizeof(types.Value{}); got != 192<<10 {
		t.Errorf("an arena slab is %d bytes, 192 KiB expected", got)
	}
}

// joinEnv is two tables l(k, v) and r(k, w) of nL and nR rows. Each draws
// its keys from `keys` values (every row its own when the table has no more
// rows than that); the two ranges overlap in two thirds, so keys repeat and
// dangle on both sides, and with nulls set a tenth of the rows have none.
type joinEnv struct {
	store *storage.Store
	l, r  *catalog.Table
}

func newJoinEnv(t testing.TB, poolPages, nL, nR, keys int, stringKeys, nulls bool) *joinEnv {
	t.Helper()
	st := storage.NewStore(poolPages)
	c := catalog.New(st)
	kind := types.KindInt
	if stringKeys {
		kind = types.KindString
	}
	rnd := rand.New(rand.NewSource(5))
	load := func(name, payload string, n, shift int) *catalog.Table {
		tbl, err := c.CreateTable(name, []schema.Column{
			{ID: schema.ColID{Name: "k"}, Type: kind},
			{ID: schema.ColID{Name: payload}, Type: types.KindInt},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := types.NewInt(int64(shift + i))
			if keys < n {
				k.I = int64(shift + rnd.Intn(keys))
			}
			if stringKeys {
				k = types.NewString(fmt.Sprintf("key-%06d", k.I))
			}
			if nulls && rnd.Intn(10) == 0 {
				k = types.Null()
			}
			if err := c.Insert(tbl, types.Row{k, types.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		tbl, _ = c.Table(name)
		return tbl
	}
	return &joinEnv{store: st, l: load("l", "v", nL, 0), r: load("r", "w", nR, keys/3)}
}

func (e *joinEnv) plan(jt lplan.JoinType, residual bool) *lplan.Join {
	preds := []expr.Expr{expr.NewCmp(expr.EQ, expr.Col("l", "k"), expr.Col("r", "k"))}
	if residual {
		preds = append(preds, expr.NewCmp(expr.LT, expr.Col("l", "v"), expr.Col("r", "w")))
	}
	return &lplan.Join{
		L: &lplan.Scan{Alias: "l", Table: e.l}, R: &lplan.Scan{Alias: "r", Table: e.r},
		Type: jt, Preds: preds, Method: lplan.JoinHash,
	}
}

// wantHashJoin spells out the order a hash join emits rows in: probe rows
// in arrival order, each with its matches in build order or padded, then
// (FULL) the unmatched build rows in build order — per partition pair, in
// partition order, on the grace path.
func wantHashJoin(l, r []types.Row, jt lplan.JoinType, residual, grace bool) []types.Row {
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
				if rPart[ri] != p || lr[0].IsNull() || rr[0].IsNull() || !types.Equal(lr[0], rr[0]) {
					continue
				}
				if residual && !(lr[1].I < rr[1].I) {
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

// TestHashJoinOrderAndIO runs every join type in memory and on the grace
// path at batch sizes 1, 3 and 1024: the rows must come out in exactly the
// order wantHashJoin spells out (so also the oracle's bag), and the page IO
// — which on the grace path is the spill files' — must not depend on the
// batch size and must equal the counts the map-based join produced.
func TestHashJoinOrderAndIO(t *testing.T) {
	for _, regime := range []struct {
		name string
		pool int
		io   storage.IOStats // of one run from a cold pool, any join type
	}{
		{"memory", 64, storage.IOStats{Reads: 11}},
		{"grace", 2, storage.IOStats{Reads: 43, Writes: 32}},
	} {
		e := newJoinEnv(t, regime.pool, 1200, 1400, 400, false, true)
		l, err := Naive(e.store, &lplan.Scan{Alias: "l", Table: e.l}, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Naive(e.store, &lplan.Scan{Alias: "r", Table: e.r}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, jt := range []lplan.JoinType{lplan.JoinInner, lplan.JoinLeft, lplan.JoinFull} {
			for _, residual := range []bool{false, true} {
				plan := e.plan(jt, residual)
				want := wantHashJoin(l.Rows, r.Rows, jt, residual, regime.name == "grace")
				oracle, err := Naive(e.store, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !BagEqual(&Result{Rows: want}, oracle) {
					t.Fatalf("%s/%s/residual=%v: the expected order is not the oracle's bag", regime.name, jt, residual)
				}
				for _, bs := range []int{1, 3, 1024} {
					name := fmt.Sprintf("%s/%s/residual=%v/batch=%d", regime.name, jt, residual, bs)
					e.store.ForceDropCaches()
					before := e.store.Stats()
					got, err := New(e.store).WithBatchSize(bs).Run(plan)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if io := e.store.Stats().Sub(before); io != regime.io {
						t.Errorf("%s: page IO %+v, want %+v", name, io, regime.io)
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
// a hash GROUP BY k computing SUM(v) and COUNT(*).
func newGroupEnv(b *testing.B, n, groups int, stringKeys bool) (*storage.Store, *lplan.GroupBy) {
	e := newJoinEnv(b, 4096, n, 0, groups, stringKeys, false)
	return e.store, &lplan.GroupBy{
		In:        &lplan.Scan{Alias: "l", Table: e.l},
		GroupCols: []schema.ColID{{Rel: "l", Name: "k"}},
		Aggs: []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.Col("l", "v"), Out: schema.ColID{Rel: "g", Name: "s"}},
			{Kind: expr.AggCountStar, Out: schema.ColID{Rel: "g", Name: "n"}},
		},
		Method: lplan.AggHash,
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

var benchKeyKinds = []struct {
	name    string
	strings bool
}{{"int", false}, {"string", true}}

// BenchmarkHashAgg aggregates 24 000 rows, all in the pool, into 25, 4 775
// and 24 000 groups (the repo benchmark's nation, partkey and one-per-row
// shapes) on an INT or a string key.
func BenchmarkHashAgg(b *testing.B) {
	for _, kind := range benchKeyKinds {
		for _, groups := range []int{25, 4775, 24000} {
			b.Run(fmt.Sprintf("%s/groups=%d", kind.name, groups), func(b *testing.B) {
				st, plan := newGroupEnv(b, 24000, groups, kind.strings)
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
// the pool, with 25, 4 775 and 24 000 distinct keys per side.
func BenchmarkHashJoin(b *testing.B) {
	for _, kind := range benchKeyKinds {
		for _, keys := range []int{25, 4775, 24000} {
			b.Run(fmt.Sprintf("%s/keys=%d", kind.name, keys), func(b *testing.B) {
				e := newJoinEnv(b, 4096, 24000, 24000, keys, kind.strings, false)
				plan := e.plan(lplan.JoinInner, false)
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
