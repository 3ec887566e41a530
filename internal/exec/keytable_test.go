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
		types.NewFloat(math.NaN()), types.NewFloat(otherNaN()),
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

// otherNaN is a NaN whose bits are not math.NaN's.
func otherNaN() float64 { return math.Float64frombits(0xfff8000000000000) }

// batchOf returns a batch holding rows in vectors of its own.
func batchOf(rows []types.Row) *Batch {
	b := &Batch{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			panic(err)
		}
	}
	return b
}

// keysOf returns the keys at cols of rows, hashed for tab.
func keysOf(tab *keyTable, rows []types.Row, cols []int) *keyRows {
	kr := new(keyRows).of(batchOf(rows), cols)
	tab.hash(kr)
	return kr
}

// lookupRow looks the key of row at cols up in tab, through a batch of one.
func lookupRow(tab *keyTable, row types.Row, cols []int) int {
	return tab.lookup(keysOf(tab, []types.Row{row}, cols), 0)
}

// insertRow inserts the key of row at cols into tab, through a batch of one.
func insertRow(tab *keyTable, row types.Row, cols []int) int {
	return tab.insert(keysOf(tab, []types.Row{row}, cols), 0)
}

// tableKeys returns the keys of tab's entries, entry e's as row e, as
// appendKeys hands them out.
func tableKeys(tab *keyTable) *types.Block {
	blk := &types.Block{N: tab.n, Cols: make([]types.Vector, tab.width)}
	tab.appendKeys(blk.Cols)
	return blk
}

// hashedTable returns an empty table for keys of width values that has
// left the dense layout, or has none, for width != 1.
func hashedTable(width int) *keyTable {
	var tab keyTable
	tab.init(width, 0)
	tab.leaveDense(nil)
	return &tab
}

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
			if got := hashKeys(new(keyRows).of(batchOf([]types.Row{row}), cols), nil)[0]; got != want {
				t.Fatalf("hashKeys(%v) = %x, want %x", row, got, want)
			}
		}
	}
	// INTs that collide as float64 must still be told apart.
	lo, hi := types.NewInt(1<<53), types.NewInt(1<<53+1)
	if types.HashValue(&lo) != types.HashValue(&hi) {
		t.Fatalf("2^53 and 2^53+1 were expected to collide")
	}
	tab := hashedTable(1)
	for i, v := range []types.Value{lo, hi} {
		row := types.Row{v}
		if e := lookupRow(tab, row, []int{0}); e >= 0 {
			t.Fatalf("%v found as entry %d before its insert", v, e)
		}
		if e := insertRow(tab, row, []int{0}); e != i {
			t.Fatalf("%v inserted as entry %d, want %d", v, e, i)
		}
	}
}

// TestKeyTableAgainstMap drives the table and a map keyed by AppendKey with
// the same random keys — 1 to 3 columns, every kind, several thousand
// entries so the table resizes many times — and requires the same answer
// to every lookup, then the same key back for every entry. A single-column
// table runs both from the dense layout and hashed from the start.
func TestKeyTableAgainstMap(t *testing.T) {
	for width := 1; width <= 3; width++ {
		for _, intsFirst := range []bool{false, true} {
			for _, hashed := range []bool{false, true} {
				if (intsFirst || !hashed) && width != 1 {
					continue
				}
				t.Run(fmt.Sprintf("width=%d/intsFirst=%v/hashed=%v", width, intsFirst, hashed), func(t *testing.T) {
					keyTableAgainstMap(t, width, intsFirst, hashed)
				})
			}
		}
	}
}

func keyTableAgainstMap(t *testing.T, width int, intsFirst, hashed bool) {
	r := rand.New(rand.NewSource(int64(7 + width)))
	// Keys sit at scattered positions of a wider row.
	cols := r.Perm(width + 2)[:width]
	var (
		tab   = hashedTable(width)
		ref   = map[string]int{}
		keys  []types.Row
		buf   []byte
		draws = 40000
	)
	if !hashed {
		// Sized for a quarter of the INT prefix's 3 000 keys, the dense
		// index spans them all, growing several times on the way.
		tab.init(width, 750)
	}
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
		if intsFirst && n == draws/2 && (!tab.intKeys || tab.dense == hashed || hashed && len(tab.slots) < 1024) {
			t.Fatalf("after %d INT keys: intKeys=%v, dense=%v, %d slots", n, tab.intKeys, tab.dense, len(tab.slots))
		}
		buf = row.AppendKey(buf[:0], cols)
		want, known := ref[string(buf)]
		got := lookupRow(tab, row, cols)
		if known != (got >= 0) || (known && got != want) {
			t.Fatalf("draw %d, key %v: table says entry %d, reference %d (known=%v)", n, row, got, want, known)
		}
		if !known {
			if e := insertRow(tab, row, cols); e != len(ref) {
				t.Fatalf("draw %d: inserted as entry %d, want %d", n, e, len(ref))
			}
			ref[string(buf)] = len(ref)
			keys = append(keys, row)
		}
	}
	if tab.n != len(ref) || len(tab.slots) < 1024 {
		t.Fatalf("%d entries in %d slots, reference holds %d", tab.n, len(tab.slots), len(ref))
	}
	if tab.intKeys || tab.dense {
		t.Fatalf("still on bare INT keys (dense=%v) after keys of every kind", tab.dense)
	}
	held := tableKeys(tab)
	for e, row := range keys {
		key := held.Row(e, nil)
		for i, c := range cols {
			if !types.Equal(key[i], row[c]) {
				t.Fatalf("entry %d holds %v, inserted %v at %v", e, key, row, cols)
			}
		}
	}
	// Reuse: an emptied table answers like a new one.
	tab.init(width, 0)
	if e := lookupRow(tab, keys[0], cols); e >= 0 || tab.n != 0 {
		t.Fatalf("emptied table still finds entry %d", e)
	}
}

// TestKeyTableBareInts: a single-column table of INT keys keeps no values,
// answers a FLOAT probe that is Equal to one of them, and hands keys back,
// dense and hashed.
func TestKeyTableBareInts(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		tab := hashedTable(1)
		if !hashed {
			tab.init(1, 100)
		}
		cols := []int{0}
		for i := int64(0); i < 100; i++ {
			insertRow(tab, types.Row{types.NewInt(i * 3)}, cols)
		}
		if !tab.intKeys || tab.keys != nil || tab.dense == hashed {
			t.Fatalf("hashed=%v: intKeys=%v dense=%v keys=%d values", hashed, tab.intKeys, tab.dense, len(tab.keys))
		}
		if e := lookupRow(tab, types.Row{types.NewFloat(42)}, cols); e != 14 {
			t.Fatalf("hashed=%v: FLOAT 42 found entry %d, want 14", hashed, e)
		}
		if k := tableKeys(tab).Row(14, nil); len(k) != 1 || !types.Equal(k[0], types.NewInt(42)) || k[0].K != types.KindInt {
			t.Fatalf("hashed=%v: entry 14 holds %v", hashed, k)
		}
	}
}

// denseStreams are the key streams TestKeyTableDenseAgainstHashed drives a
// dense and a hashed table with. convertAt is the position of the first key
// the dense layout cannot take (len(keys): none).
func denseStreams() []struct {
	name      string
	keys      []types.Value
	convertAt int
} {
	const p53 = int64(1) << 53
	r := rand.New(rand.NewSource(3))
	ints := func(ks ...int64) []types.Value {
		out := make([]types.Value, len(ks))
		for i, k := range ks {
			out[i] = types.NewInt(k)
		}
		return out
	}
	var dense, down, sparse, stretch, mixed, spread []types.Value
	for i := 0; i < 2000; i++ {
		dense = append(dense, types.NewInt(r.Int63n(500)))
	}
	// 600 keys over 30 000 values: beyond four a key, within the floor.
	for i := 0; i < 600; i++ {
		spread = append(spread, types.NewInt(r.Int63n(30_000)-15_000))
	}
	for k := int64(3000); k >= -3000; k -= 1 + r.Int63n(3) {
		down = append(down, types.NewInt(k))
	}
	for i := 0; i < 500; i++ {
		sparse = append(sparse, types.NewInt(r.Int63n(1<<40)))
	}
	for i := 0; i < 600; i++ {
		stretch = append(stretch, types.NewInt(r.Int63n(300)))
	}
	// The key at 302 stretches the span past the rule in the middle of a
	// batch of 7.
	stretch[302] = types.NewInt(10_000_000)
	for i := 0; i < 40; i++ {
		mixed = append(mixed, types.NewInt(r.Int63n(30)))
	}
	mixed[17] = types.Null()
	mixed[25] = types.NewString("k")
	floats := append(ints(0, 1, 2, 3, 7, 9),
		types.NewFloat(2), types.NewFloat(negZero()), types.NewFloat(7), // Equal to keys held
		types.NewFloat(2.5), // not: the table converts here, at 9
		types.NewFloat(math.NaN()), types.NewFloat(otherNaN()), types.NewFloat(-3), types.NewInt(-3), types.NewFloat(0.25), types.NewInt(4))
	return []struct {
		name      string
		keys      []types.Value
		convertAt int
	}{
		{"dense", dense, len(dense)},
		{"spread", spread, len(spread)},
		{"growing-down", down, len(down)},
		{"sparse", sparse, 1},
		{"stretch", stretch, 302},
		{"p53", ints(p53-2, p53-1, p53, p53-1, p53+1, p53, -p53, p53+2, 0), 4},
		{"-p53", ints(-p53+1, -p53, -p53+1, -p53-1, -p53, 5), 3},
		{"floats", floats, 9},
		{"null-string", mixed, 17},
	}
}

// TestKeyTableDenseAgainstHashed drives a table that starts dense and one
// forced into the hashed layout with the same key streams — dense and
// sparse INTs, INTs spread wider than four a key but within the dense
// floor, a key that stretches the span mid-batch, ±2^53±1, FLOAT
// whole and fractional values, -0.0 and NaN, NULL and a string arriving
// mid-stream — in batches of 7, so that a table converts mid-batch. Every
// lookup and every insert must give both tables the same entry, the dense
// one must leave its layout exactly at the key that breaks the rule, both
// must hand back the same keys, and afterwards both must answer the same
// to probes of every kind.
func TestKeyTableDenseAgainstHashed(t *testing.T) {
	cols := []int{1}
	for _, st := range denseStreams() {
		var dense keyTable
		dense.init(1, 0)
		hashed := hashedTable(1)
		rows := make([]types.Row, len(st.keys))
		for i, k := range st.keys {
			rows[i] = types.Row{types.NewInt(int64(i)), k}
		}
		for start := 0; start < len(rows); start += 7 {
			chunk := rows[start:min(start+7, len(rows))]
			bd, bh := keysOf(&dense, chunk, cols), keysOf(hashed, chunk, cols)
			for i, row := range chunk {
				at := start + i
				e, want := dense.lookup(bd, i), hashed.lookup(bh, i)
				if e != want {
					t.Fatalf("%s: key %d (%v): dense table finds entry %d, hashed %d", st.name, at, row[1], e, want)
				}
				if e < 0 {
					e, want = dense.insert(bd, i), hashed.insert(bh, i)
					if e != want || e != hashed.n-1 {
						t.Fatalf("%s: key %d (%v): inserted as entry %d in the dense table, %d in the hashed", st.name, at, row[1], e, want)
					}
				}
				if dense.dense != (at < st.convertAt) {
					t.Fatalf("%s: after key %d (%v): dense=%v, want the dense layout up to key %d", st.name, at, row[1], dense.dense, st.convertAt)
				}
			}
		}
		if dense.n != hashed.n {
			t.Fatalf("%s: %d entries dense, %d hashed", st.name, dense.n, hashed.n)
		}
		dk, hk := tableKeys(&dense), tableKeys(hashed)
		for e := 0; e < dense.n; e++ {
			if a, b := dk.Row(e, nil), hk.Row(e, nil); !sameBits(a[0], b[0]) {
				t.Fatalf("%s: entry %d holds %v dense, %v hashed", st.name, e, a, b)
			}
		}
		probes := append(append([]types.Value{}, keyValuePool...), st.keys...)
		for _, k := range st.keys {
			if k.K == types.KindInt {
				probes = append(probes, types.NewFloat(float64(k.I)), types.NewFloat(float64(k.I)+0.5), types.NewInt(k.I+1))
			}
		}
		for _, p := range probes {
			row := types.Row{types.Null(), p}
			if e, want := lookupRow(&dense, row, cols), lookupRow(hashed, row, cols); e != want {
				t.Fatalf("%s: probe %v (%s) finds entry %d dense, %d hashed", st.name, p, p.K, e, want)
			}
		}
	}
}

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
