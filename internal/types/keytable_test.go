package types

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// keyValuePool holds values of every kind, chosen so that Equal pairs of
// different spelling are drawn often: INT 2 / FLOAT 2.0, +0 / -0 / INT 0,
// and INTs around ±2^53, where float64 stops telling neighbours apart.
// FLOATs stay below 2^53 in magnitude: above it Compare rounds the INT side
// of a mixed pair, which makes Equal non-transitive and any reference moot.
var keyValuePool = func() []Value {
	pool := []Value{
		Null(), NewBool(false), NewBool(true),
		NewString(""), NewString("a"), NewString("ab"), NewString("b"),
		NewFloat(0), NewFloat(negZero()), NewFloat(0.5), NewFloat(-0.5),
		NewFloat(math.NaN()), NewFloat(otherNaN()),
	}
	for i := int64(-3); i <= 3; i++ {
		pool = append(pool, NewInt(i), NewFloat(float64(i)))
	}
	for _, base := range []int64{1 << 53, -(1 << 53)} {
		for d := int64(-2); d <= 2; d++ {
			pool = append(pool, NewInt(base+d))
		}
	}
	return pool
}()

func negZero() float64 { z := 0.0; return -z }

// otherNaN is a NaN whose bits are not math.NaN's.
func otherNaN() float64 { return math.Float64frombits(0xfff8000000000000) }

// blockOf returns a block holding rows.
func blockOf(rows []Row) *Block {
	b := &Block{}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			panic(err)
		}
	}
	return b
}

// keysOf returns the keys at cols of rows, every row selected, hashed for
// tab.
func keysOf(tab *KeyTable, rows []Row, cols []int) *KeyRows {
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	kr := new(KeyRows).Of(blockOf(rows).Cols, cols, sel)
	tab.Hash(kr)
	return kr
}

// lookupRow looks the key of row at cols up in tab, through a batch of one:
// Find's answer, which Lookup must give too.
func lookupRow(tab *KeyTable, row Row, cols []int) int {
	kr := keysOf(tab, []Row{row}, cols)
	e, batch := tab.Find(kr, 0), []int32{0}
	if tab.Lookup(kr, batch); int(batch[0]) != e {
		panic(fmt.Sprintf("key %v: Find says entry %d, Lookup %d", row, e, batch[0]))
	}
	return e
}

// insertRow adds the key of row at cols, which tab does not hold, through a
// batch of one, and returns its entry.
func insertRow(tab *KeyTable, row Row, cols []int) int {
	e, added := tab.Add(keysOf(tab, []Row{row}, cols), 0)
	if !added {
		panic(fmt.Sprintf("key %v found as entry %d", row, e))
	}
	return e
}

// tableKeys returns the keys of tab's entries, entry e's as row e, as
// AppendKeys hands them out.
func tableKeys(tab *KeyTable) *Block {
	blk := &Block{N: tab.n, Cols: make([]Vector, tab.width)}
	tab.AppendKeys(blk.Cols)
	return blk
}

// hashedTable returns an empty table for keys of width values that has
// left the dense layout, or has none, for width != 1.
func hashedTable(width int) *KeyTable {
	var tab KeyTable
	tab.Init(width, 0, KindNull)
	tab.leaveDense(nil)
	return &tab
}

func TestHashAgreesWithEqual(t *testing.T) {
	for _, a := range keyValuePool {
		for _, b := range keyValuePool {
			a, b := a, b
			if Equal(a, b) && HashValue(&a) != HashValue(&b) {
				t.Errorf("%v and %v are Equal but hash apart", a, b)
			}
		}
	}
	// The batch hash combines the column hashes in key order.
	for _, a := range keyValuePool {
		for _, b := range keyValuePool {
			row, cols := Row{a, b}, []int{1, 0}
			want := HashCombine(HashValue(&b), HashValue(&a))
			if got := hashKeys(new(KeyRows).Of(blockOf([]Row{row}).Cols, cols, []int32{0}), nil)[0]; got != want {
				t.Fatalf("hashKeys(%v) = %x, want %x", row, got, want)
			}
		}
	}
	// INTs that collide as float64 must still be told apart.
	lo, hi := NewInt(1<<53), NewInt(1<<53+1)
	if HashValue(&lo) != HashValue(&hi) {
		t.Fatalf("2^53 and 2^53+1 were expected to collide")
	}
	tab := hashedTable(1)
	for i, v := range []Value{lo, hi} {
		row := Row{v}
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
		keys  []Row
		buf   []byte
		draws = 40000
	)
	if !hashed {
		// Sized for a quarter of the INT prefix's 3 000 keys, the dense
		// index spans them all, growing several times on the way.
		tab.Init(width, 750, KindNull)
	}
	for n := 0; n < draws; n++ {
		row := make(Row, width+2)
		for i := range row {
			switch {
			case intsFirst && n < draws/2:
				// A long INT-only prefix keeps the table on bare
				// int64 keys across many resizes before the
				// first key of another kind converts it.
				row[i] = NewInt(r.Int63n(3000))
			case r.Intn(3) == 0:
				row[i] = NewInt(r.Int63n(2000))
			case r.Intn(4) == 0:
				row[i] = NewString(fmt.Sprint("s", r.Intn(500)))
			default:
				row[i] = keyValuePool[r.Intn(len(keyValuePool))]
			}
		}
		if intsFirst && n == draws/2 && (!intKeys(tab) || tab.dense == hashed || hashed && len(tab.slots) < 1024) {
			t.Fatalf("after %d INT keys: INT key vector=%v, dense=%v, %d slots", n, intKeys(tab), tab.dense, len(tab.slots))
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
	if intKeys(tab) || tab.dense {
		t.Fatalf("still on an INT key vector (dense=%v) after keys of every kind", tab.dense)
	}
	held := tableKeys(tab)
	for e, row := range keys {
		key := held.Row(e, nil)
		for i, c := range cols {
			if !Equal(key[i], row[c]) {
				t.Fatalf("entry %d holds %v, inserted %v at %v", e, key, row, cols)
			}
		}
	}
	// Reuse: an emptied table answers like a new one.
	tab.Init(width, 0, KindNull)
	if e := lookupRow(tab, keys[0], cols); e >= 0 || tab.n != 0 {
		t.Fatalf("emptied table still finds entry %d", e)
	}
}

// TestKeyTableLookupThenAdd drives the table as hash aggregation does: a
// batch is hashed and looked up at once, then each row the lookup missed
// is added, or, for a row marked to spill, only found again — so Add and
// Find resume the probes Lookup ended, across keys repeated within a
// batch, resizes, a dense table's conversion mid-batch and keys of every
// kind. Every entry must be the one a map keyed by AppendKey gives.
func TestKeyTableLookupThenAdd(t *testing.T) {
	for width := 1; width <= 2; width++ {
		r := rand.New(rand.NewSource(int64(11 + width)))
		var tab KeyTable
		tab.Init(width, 0, KindNull)
		ref, keys := map[string]int{}, []Row(nil)
		cols := []int{0, 1}[:width]
		var buf []byte
		for batch := 0; batch < 60; batch++ {
			rows := make([]Row, 1+r.Intn(300))
			for i := range rows {
				rows[i] = make(Row, width)
				for j := range rows[i] {
					switch {
					case batch < 20: // INTs first, so a one-column table starts dense
						rows[i][j] = NewInt(r.Int63n(int64(50 + 40*batch)))
					case r.Intn(2) == 0:
						rows[i][j] = NewInt(r.Int63n(5000))
					default:
						rows[i][j] = keyValuePool[r.Intn(len(keyValuePool))]
					}
				}
			}
			kr := keysOf(&tab, rows, cols)
			out := make([]int32, len(rows))
			tab.Lookup(kr, out)
			for i, row := range rows {
				buf = row.AppendKey(buf[:0], cols)
				want, known := ref[string(buf)]
				e := int(out[i])
				if e < 0 && i%5 == 0 {
					e = tab.Find(kr, i) // a key an earlier row of the batch added, or none
				} else if e < 0 {
					var added bool
					if e, added = tab.Add(kr, i); added != !known {
						t.Fatalf("width %d batch %d row %d (%v): added=%v, reference knows it: %v", width, batch, i, row, added, known)
					}
				}
				if !known && e >= 0 {
					want, known = len(ref), true
					ref[string(buf)] = want
					keys = append(keys, row)
				}
				if known != (e >= 0) || known && e != want {
					t.Fatalf("width %d batch %d row %d (%v): entry %d, reference %d (known=%v)", width, batch, i, row, e, want, known)
				}
			}
		}
		if tab.n != len(ref) || tab.dense {
			t.Fatalf("width %d: %d entries (dense=%v), reference holds %d", width, tab.n, tab.dense, len(ref))
		}
		// Probes from the start of each sequence find every entry where
		// the resumed ones placed it.
		for e, row := range keys {
			if got := lookupRow(&tab, row, cols); got != e {
				t.Fatalf("width %d: key %v found as entry %d, want %d", width, row, got, e)
			}
		}
	}
}

// intKeys reports whether tab keeps its keys in one typed INT vector: a
// single column, every key an INT.
func intKeys(tab *KeyTable) bool {
	return len(tab.keys) == 1 && tab.keys[0].K == KindInt && tab.keys[0].Vals == nil && tab.keys[0].N == tab.n
}

// TestKeyTableBareInts: a single-column table of INT keys keeps them in a
// typed INT vector, no value spelled out, answers a FLOAT probe that is
// Equal to one of them, and hands keys back, dense and hashed.
func TestKeyTableBareInts(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		tab := hashedTable(1)
		if !hashed {
			tab.Init(1, 100, KindNull)
		}
		cols := []int{0}
		for i := int64(0); i < 100; i++ {
			insertRow(tab, Row{NewInt(i * 3)}, cols)
		}
		if !intKeys(tab) || tab.dense == hashed {
			t.Fatalf("hashed=%v: INT key vector=%v dense=%v, key kind %v", hashed, intKeys(tab), tab.dense, tab.keys[0].K)
		}
		if e := lookupRow(tab, Row{NewFloat(42)}, cols); e != 14 {
			t.Fatalf("hashed=%v: FLOAT 42 found entry %d, want 14", hashed, e)
		}
		if k := tableKeys(tab).Row(14, nil); len(k) != 1 || !Equal(k[0], NewInt(42)) || k[0].K != KindInt {
			t.Fatalf("hashed=%v: entry 14 holds %v", hashed, k)
		}
	}
}

// denseStreams are the key streams TestKeyTableDenseAgainstHashed drives a
// dense and a hashed table with. convertAt is the position of the first key
// the dense layout cannot take (len(keys): none).
func denseStreams() []struct {
	name      string
	keys      []Value
	convertAt int
	kind      Kind // the key column's declared kind
} {
	const p53 = int64(1) << 53
	r := rand.New(rand.NewSource(3))
	ints := func(ks ...int64) []Value {
		out := make([]Value, len(ks))
		for i, k := range ks {
			out[i] = NewInt(k)
		}
		return out
	}
	var dense, down, sparse, stretch, mixed, spread []Value
	for i := 0; i < 2000; i++ {
		dense = append(dense, NewInt(r.Int63n(500)))
	}
	// 600 keys over 30 000 values: beyond four a key, within the floor.
	for i := 0; i < 600; i++ {
		spread = append(spread, NewInt(r.Int63n(30_000)-15_000))
	}
	for k := int64(3000); k >= -3000; k -= 1 + r.Int63n(3) {
		down = append(down, NewInt(k))
	}
	for i := 0; i < 500; i++ {
		sparse = append(sparse, NewInt(r.Int63n(1<<40)))
	}
	for i := 0; i < 600; i++ {
		stretch = append(stretch, NewInt(r.Int63n(300)))
	}
	// The key at 302 stretches the span past the rule in the middle of a
	// batch of 7.
	stretch[302] = NewInt(10_000_000)
	for i := 0; i < 40; i++ {
		mixed = append(mixed, NewInt(r.Int63n(30)))
	}
	mixed[17] = Null()
	mixed[25] = NewString("k")
	floats := append(ints(0, 1, 2, 3, 7, 9),
		NewFloat(2), NewFloat(negZero()), NewFloat(7), // Equal to keys held
		NewFloat(2.5), // not: the table converts here, at 9
		NewFloat(math.NaN()), NewFloat(otherNaN()), NewFloat(-3), NewInt(-3), NewFloat(0.25), NewInt(4))
	// VARCHAR keys, repeating, with a NULL: a table declared VARCHAR
	// starts hashed.
	var strs []Value
	for i := 0; i < 300; i++ {
		strs = append(strs, NewString(fmt.Sprintf("r%d-p%d", r.Intn(3), r.Intn(24))))
	}
	strs[40] = Null()
	return []struct {
		name      string
		keys      []Value
		convertAt int
		kind      Kind
	}{
		{"dense", dense, len(dense), KindInt},
		{"spread", spread, len(spread), KindInt},
		{"growing-down", down, len(down), KindInt},
		{"sparse", sparse, 1, KindInt},
		{"stretch", stretch, 302, KindInt},
		{"p53", ints(p53-2, p53-1, p53, p53-1, p53+1, p53, -p53, p53+2, 0), 4, KindInt},
		{"-p53", ints(-p53+1, -p53, -p53+1, -p53-1, -p53, 5), 3, KindInt},
		{"floats", floats, 9, KindInt},
		{"null-string", mixed, 17, KindNull},
		{"varchar", strs, 0, KindString},
	}
}

// TestKeyTableDenseAgainstHashed drives a table initialized for the key
// column's declared kind and one forced into the hashed layout with the
// same key streams — dense and sparse INTs, INTs spread wider than four a
// key but within the dense floor, a key that stretches the span mid-batch,
// ±2^53±1, FLOAT whole and fractional values, -0.0 and NaN, NULL and a
// string arriving mid-stream, all in an INT (or undeclared) column, and
// VARCHARs in a VARCHAR column — in batches of 7, so that a table converts
// mid-batch. Every lookup and every insert must give both tables the same
// entry, the first one must leave the dense layout exactly at the key that
// breaks the rule (a VARCHAR table is never dense, so never converts),
// both must hand back the same keys in entry order, and afterwards both
// must answer the same to probes of every kind.
func TestKeyTableDenseAgainstHashed(t *testing.T) {
	cols := []int{1}
	for _, st := range denseStreams() {
		var dense KeyTable
		dense.Init(1, 0, st.kind)
		hashed := hashedTable(1)
		rows := make([]Row, len(st.keys))
		for i, k := range st.keys {
			rows[i] = Row{NewInt(int64(i)), k}
		}
		for start := 0; start < len(rows); start += 7 {
			chunk := rows[start:min(start+7, len(rows))]
			bd, bh := keysOf(&dense, chunk, cols), keysOf(hashed, chunk, cols)
			for i, row := range chunk {
				at := start + i
				e, want := dense.Find(bd, i), hashed.Find(bh, i)
				if e != want {
					t.Fatalf("%s: key %d (%v): dense table finds entry %d, hashed %d", st.name, at, row[1], e, want)
				}
				if e < 0 {
					var added, hadded bool
					e, added = dense.Add(bd, i)
					want, hadded = hashed.Add(bh, i)
					if e != want || e != hashed.n-1 || !added || !hadded {
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
			if a, b := dk.Row(e, nil), hk.Row(e, nil); !sameValue(a[0], b[0]) {
				t.Fatalf("%s: entry %d holds %v dense, %v hashed", st.name, e, a, b)
			}
		}
		probes := append(append([]Value{}, keyValuePool...), st.keys...)
		for _, k := range st.keys {
			if k.K == KindInt {
				probes = append(probes, NewFloat(float64(k.I)), NewFloat(float64(k.I)+0.5), NewInt(k.I+1))
			}
		}
		for _, p := range probes {
			row := Row{Null(), p}
			if e, want := lookupRow(&dense, row, cols), lookupRow(hashed, row, cols); e != want {
				t.Fatalf("%s: probe %v (%s) finds entry %d dense, %d hashed", st.name, p, p.K, e, want)
			}
		}
	}
}
