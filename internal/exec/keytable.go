package exec

import (
	"hash/fnv"
	"math"
	"unsafe"

	"aggview/internal/types"
)

// keyTable maps a key — the values at some column positions of a row — to a
// dense entry id, numbered from 0 in insertion order. Hash join and hash
// aggregation both sit on it: the join keeps a chain of build rows per
// entry, the aggregation a group's accumulators.
//
// A single-column table starts dense: while every key inserted is an INT
// within ±2^53 and the keys span at most denseSpan(entries), an entry id
// sits in index at key − lo, and a lookup or insert is one index operation
// with no hash computed or stored. The first insert that breaks the rule
// converts the table to the hashed layout, keeping every entry id.
//
// Hashed layout: an open-addressing, power-of-two, linear-probing slot
// array whose words pack the upper half of the key hash with the entry id,
// so a probe that misses touches nothing but that array; beside it, per
// entry, the full hash (a resize re-places entries without rehashing keys).
// Either way the table keeps a copy of each key: while a single-column
// table has seen only INT keys it keeps them as bare int64s, and an INT
// probe is one integer compare.
//
// Contract: keys match by types.Equal position by position, and hashKeys
// agrees with it — Equal keys hash alike (numerics hash through their
// float64 bits with -0 folded into +0 and every NaN as one, so INT 2 meets
// FLOAT 2.0; INT pairs are then told apart exactly by Equal). NULL is Equal
// to NULL here, which is what GROUP BY wants; the join never offers a NULL
// key.
//
// Rows are looked up and inserted a batch at a time, as keyRows: the key
// columns' vectors and the rows' positions in them. hash readies the keys
// (it hashes them unless the table is dense), and lookup and insert take
// the i-th row. A dense table reads an INT key column's []int64 directly.
type keyTable struct {
	width  int // values per key
	n      int // entries
	expect int // the entries the table was sized for

	dense      bool    // see above; only ever true for width 1
	lo         int64   // dense: the key at index[0]
	index      []int32 // dense: entry id + 1 of the key lo+i; 0 = none
	kmin, kmax int64   // dense: the least and the greatest key, once there is one

	slots  []uint64 // hashed: hash>>32 <<32 | entry id + 1; 0 = empty
	hashes []uint64 // hashed: per entry

	scratch []uint64 // the key hashes of the batch being looked up (hash)

	ints []int64       // per entry while intKeys: the key
	keys []types.Value // otherwise: width values per entry
	// intKeys: width is 1 and every key inserted so far is an INT.
	intKeys bool
}

// keyTables recycles key tables, their storage grown, across runs; a
// table whose index or slots outgrew maxKeptKeys is let go instead, so
// that the clear a reused table's init does stays small.
var keyTables recycler[keyTable]

const maxKeptKeys = 1 << 16

// getKeyTable returns an empty table from the pool; init readies it.
func getKeyTable() *keyTable { return keyTables.get() }

// putKeyTable returns t to the pool, holding no key.
func putKeyTable(t *keyTable) {
	if t == nil || cap(t.index) > maxKeptKeys || len(t.slots) > maxKeptKeys {
		return
	}
	clear(t.keys) // drop the VARCHARs they point into
	t.keys = t.keys[:0]
	keyTables.put(t)
}

// keyTableMinSlots is the slot count of the first allocation: a table of a
// few dozen groups costs a few hundred bytes, and larger ones double.
const keyTableMinSlots = 16

// maxDenseKey bounds the keys a dense table holds: within it float64 holds
// every INT exactly, so a FLOAT probe meets an INT key only at its own
// whole value.
const maxDenseKey = 1 << 53

// denseSpan is how many keys a dense index may span for n entries: four
// per entry with some slack, and never fewer than denseFloor, so that a
// few hundred keys spread over a few thousand values still index directly.
func denseSpan(n int) int64 { return max(4*int64(n)+1024, denseFloor) }

// denseFloor is the least span a dense index may reach whatever its entry
// count: an index of 2^15 int32s, 128 KiB. It is no larger than
// maxKeptKeys, so a table the pool keeps never outgrows what it keeps.
const denseFloor = 1 << 15

// init empties the table for keys of width values, expecting n entries
// (0: unknown): a hashed table has room for them before its first resize,
// and a dense one sizes its index and entry storage for them on the first
// insert. Storage from an earlier use is kept when large enough.
func (t *keyTable) init(width, n int) {
	t.width, t.n, t.expect = width, 0, n
	t.intKeys, t.dense = width == 1, width == 1
	t.hashes, t.ints, t.keys = t.hashes[:0], t.ints[:0], t.keys[:0]
	if t.dense {
		t.index = t.index[:0] // reserve or the first insert sizes and clears it
		return
	}
	slots := slotsFor(n)
	if slots > len(t.slots) {
		t.resize(slots)
		return
	}
	clear(t.slots)
}

// slotsFor returns the slot count that holds n entries at 3/4 load, or 0
// for none.
func slotsFor(n int) int {
	if n <= 0 {
		return 0
	}
	slots := keyTableMinSlots
	for slots*3 < n*4 {
		slots *= 2
	}
	return slots
}

// reserve readies an empty dense table for INT keys from lo to hi: it
// sizes the index to span them, or, when they span too many, leaves the
// dense layout before the first insert.
func (t *keyTable) reserve(lo, hi int64) {
	if !t.dense {
		return
	}
	if lo < -maxDenseKey || hi > maxDenseKey || hi-lo >= denseSpan(t.expect) {
		t.leaveDense(nil)
		return
	}
	t.lo, t.index = lo, zeroed(t.index, int(hi-lo+1))
}

// entryBytes is what a table entry holds in memory beyond its key values:
// its share of the slots (at most 3/4 full), and its hash.
const entryBytes = 8*4/3 + 8

// presized returns how many entries to reserve for an estimate of n:
// n, but no more than budget bytes hold at entryBytes plus width values
// an entry.
func presized(n float64, width, budget int) int {
	perEntry := entryBytes + width*int(unsafe.Sizeof(types.Value{}))
	return int(min(max(n, 0), float64(budget/perEntry)))
}

// keyRows are the rows of a batch as a key table reads them: vecs[j] is
// the vector of key column j, and row i sits at position sel[i] in each;
// hashes[i] is its key's hash (keyTable.hash).
type keyRows struct {
	buf    [2]*types.Vector // backs vecs for keys of up to two columns
	vecs   []*types.Vector
	sel    []int32
	hashes []uint64
}

// of points kr at b's rows, keyed by the columns at cols.
func (kr *keyRows) of(b *Batch, cols []int) *keyRows {
	if kr.vecs == nil {
		kr.vecs = kr.buf[:0]
	}
	kr.vecs = kr.vecs[:0]
	for _, c := range cols {
		kr.vecs = append(kr.vecs, &b.Cols[c])
	}
	kr.sel = b.selection()
	return kr
}

// mayHoldNull reports whether some key column may hold a NULL: whether
// nullKey needs asking at all.
func (kr *keyRows) mayHoldNull() bool {
	for _, v := range kr.vecs {
		if v.Nulls != nil || v.K != types.KindInt && v.K != types.KindFloat && v.K != types.KindString && v.K != types.KindBool {
			return true
		}
	}
	return false
}

// nullKey reports whether row i's key holds a NULL.
func (kr *keyRows) nullKey(i int) bool {
	for _, v := range kr.vecs {
		if v.IsNull(int(kr.sel[i])) {
			return true
		}
	}
	return false
}

// hash readies kr's keys for lookup and insert: their hashes go to
// kr.hashes, one per row. A dense table computes none; a conversion
// computes them.
func (t *keyTable) hash(kr *keyRows) {
	if !t.dense {
		kr.hashes = hashKeys(kr, t.scratch)
		t.scratch = kr.hashes // recycled with the table
	}
}

// denseInts returns the INTs of kr's one key column when the table is
// dense and the column holds INTs and no NULL: row i's entry is then
// denseAt(ints[kr.sel[i]]).
func (t *keyTable) denseInts(kr *keyRows) (ints []int64, ok bool) {
	if !t.dense {
		return nil, false
	}
	v := kr.vecs[0]
	return v.Ints, v.K == types.KindInt && v.Nulls == nil
}

// lookup returns the entry whose key equals row i's of kr, or -1.
func (t *keyTable) lookup(kr *keyRows, i int) int {
	k := int(kr.sel[i])
	if t.dense {
		v := kr.vecs[0]
		if v.K == types.KindInt && (v.Nulls == nil || !v.IsNull(k)) {
			return t.denseAt(v.Ints[k])
		}
		x := v.Value(k)
		if x.K == types.KindInt {
			return t.denseAt(x.I)
		}
		return t.denseOther(&x)
	}
	if len(t.slots) == 0 {
		return -1
	}
	h := kr.hashes[i]
	mask := uint64(len(t.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s == 0 {
			return -1
		}
		if s>>32 != h>>32 {
			continue
		}
		e := int(uint32(s)) - 1
		if t.intKeys {
			if v := kr.vecs[0]; v.K == types.KindInt && (v.Nulls == nil || !v.IsNull(k)) {
				if v.Ints[k] == t.ints[e] {
					return e
				}
			} else if types.Equal(types.NewInt(t.ints[e]), v.Value(k)) {
				return e
			}
		} else if sameKey(t.keys[e*t.width:], kr, k) {
			return e
		}
	}
}

// denseAt returns the entry of key k in a dense table, or -1. The keys
// are within ±2^53 and k is an int64, so k-lo wraps into the index's range
// only when k is in it.
func (t *keyTable) denseAt(k int64) int {
	if i := uint64(k - t.lo); i < uint64(len(t.index)) {
		return int(t.index[i]) - 1
	}
	return -1
}

// denseOther returns the entry of a dense table Equal to v, which is not
// an INT, or -1: a FLOAT that is a whole number within ±2^53 meets the INT
// of its value, and no other value is Equal to an INT the table holds.
func (t *keyTable) denseOther(v *types.Value) int {
	f := v.F()
	if v.K != types.KindFloat || !(f >= -maxDenseKey && f <= maxDenseKey) || f != math.Trunc(f) { // NaN fails the range test
		return -1
	}
	return t.denseAt(int64(f))
}

// sameKey reports whether key and the key at position k of kr's vectors
// are Equal position by position (NULL Equal to NULL: grouping, not join,
// semantics).
func sameKey(key types.Row, kr *keyRows, k int) bool {
	for i, v := range kr.vecs {
		if !types.Equal(key[i], v.Value(k)) {
			return false
		}
	}
	return true
}

// insert adds an entry for row i's key of kr and returns its id. The
// caller has looked the key up and not found it.
func (t *keyTable) insert(kr *keyRows, i int) int {
	k := int(kr.sel[i])
	if t.dense {
		x := kr.vecs[0].Value(k)
		if t.denseInsert(&x) {
			t.n++
			return t.n - 1
		}
		t.leaveDense(kr)
	}
	if t.n == cap(t.hashes) {
		t.resize(max(2*len(t.slots), keyTableMinSlots))
	}
	e, h := t.n, kr.hashes[i]
	t.n++
	t.hashes = append(t.hashes, h)
	if t.intKeys {
		if x := kr.vecs[0].Value(k); x.K == types.KindInt {
			t.ints = append(t.ints, x.I)
			t.place(h, e)
			return e
		}
		// The first key of another kind: spell the INT keys out as values.
		t.intKeys = false
		t.keys = roomFor(t.keys[:0], cap(t.hashes))
		for _, k := range t.ints {
			t.keys = append(t.keys, types.NewInt(k))
		}
		t.ints = nil
	}
	for _, v := range kr.vecs {
		t.keys = append(t.keys, v.Value(k))
	}
	t.place(h, e)
	return e
}

// denseInsert adds v as the next entry of a dense table and reports
// whether it could: v must be an INT within ±2^53, and the keys with it
// must span no more than denseSpan allows.
func (t *keyTable) denseInsert(v *types.Value) bool {
	k := v.I
	if v.K != types.KindInt || k < -maxDenseKey || k > maxDenseKey {
		return false
	}
	if t.n == 0 {
		t.kmin, t.kmax = k, k
		if uint64(k-t.lo) >= uint64(len(t.index)) {
			// The index is centred on the first key and sized for the
			// entries expected (reserve may have placed it already).
			t.index = zeroed(t.index, max(t.expect, keyTableMinSlots))
			t.lo = k - int64(len(t.index)/2)
		}
		if cap(t.ints) < t.expect {
			t.ints = make([]int64, 0, t.expect)
		}
	}
	kmin, kmax := min(t.kmin, k), max(t.kmax, k)
	i := uint64(k - t.lo)
	if i >= uint64(len(t.index)) {
		limit := denseSpan(max(t.n+1, t.expect))
		if kmax-kmin >= limit {
			return false
		}
		t.growIndex(k, kmin, kmax, limit)
		i = uint64(k - t.lo)
	}
	t.kmin, t.kmax = kmin, kmax
	t.index[i] = int32(t.n + 1)
	t.ints = append(t.ints, k)
	return true
}

// growIndex reallocates the dense index to hold k, the keys spanning kmin
// to kmax with it, in at most limit positions. The index at least doubles,
// toward k, keeping the room it had on its other side; when that would
// pass the limit, the keys sit in the middle of a limit-sized index, so
// that keys arriving on either side do not reallocate it again.
func (t *keyTable) growIndex(k, kmin, kmax, limit int64) {
	hi := t.lo + int64(len(t.index)) - 1
	lo, n := min(t.lo, k), int64(0)
	if span := max(hi, k) - lo + 1; span <= limit {
		n = min(max(2*int64(len(t.index)), span), limit)
		if k < t.lo {
			lo = hi - n + 1
		}
	} else {
		n = limit
		lo = kmin - (n-(kmax-kmin+1))/2
	}
	// The keys held move to their new places, within the index's storage
	// when it has room, and every other place is emptied.
	from, to := t.kmin-t.lo, t.kmin-lo
	held := t.index[from : t.kmax-t.lo+1]
	idx := t.index
	if int64(cap(idx)) < n {
		idx = make([]int32, n)
	}
	idx = idx[:n]
	copy(idx[to:], held)
	clear(idx[:to])
	clear(idx[to+int64(len(held)):])
	t.index, t.lo = idx, lo
}

// zeroed returns s resized to n zeros, in its own storage when that has
// room.
func zeroed(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// leaveDense converts a dense table to the hashed layout: it hashes its
// entries once and places them, then readies kr's keys (kr nil: no batch
// in flight).
func (t *keyTable) leaveDense(kr *keyRows) {
	t.dense = false
	t.hashes = t.hashes[:0]
	for _, k := range t.ints {
		v := types.NewInt(k)
		t.hashes = append(t.hashes, types.HashValue(&v))
	}
	t.resize(max(slotsFor(max(t.n+1, t.expect)), len(t.slots)))
	if kr != nil {
		t.hash(kr)
	}
}

// resize installs a slot array of n slots (a power of two, or 0) and entry
// storage for the 3n/4 entries it may hold, carrying the entries over.
// Entry storage grows here and nowhere else, so it doubles with the slots
// instead of following append's finer-grained schedule.
func (t *keyTable) resize(n int) {
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
		clear(t.slots)
	} else {
		t.slots = make([]uint64, n)
	}
	entries := n / 4 * 3
	t.hashes = roomFor(t.hashes, entries)
	if t.intKeys {
		t.ints = roomFor(t.ints[:t.n], entries)
	} else {
		t.keys = roomFor(t.keys[:t.n*t.width], entries*t.width)
	}
	for e, h := range t.hashes {
		t.place(h, e)
	}
}

// roomFor returns s with a capacity of exactly n, n >= len(s): in its own
// storage when that has room (an earlier use's), or in new storage.
func roomFor[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:len(s):n]
	}
	return append(make([]T, 0, n), s...)
}

// place writes entry e into the first free slot of h's probe sequence.
func (t *keyTable) place(h uint64, e int) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = h&^math.MaxUint32 | uint64(e+1)
}

// appendKeys appends the keys of entries 0, 1, ..., n-1 to cols, key
// column j to cols[j]: bare INTs in one copy, other keys value by value,
// their VARCHARs by reference (Vector.AppendRef).
func (t *keyTable) appendKeys(cols []types.Vector) {
	if t.intKeys {
		cols[0].AppendInts(t.ints[:t.n])
		return
	}
	for e := 0; e < t.n; e++ {
		for j := range cols {
			cols[j].AppendRef(t.keys[e*t.width+j])
		}
	}
}

// hashKeys writes into out the hash of each row's key of kr (the
// types.HashValue of each column, folded by types.HashCombine in key order;
// 0 for an empty key), one key column at a time over the whole batch, and
// returns out resized to the rows.
func hashKeys(kr *keyRows, out []uint64) []uint64 {
	n := len(kr.sel)
	if cap(out) < n {
		out = make([]uint64, n)
	}
	out = out[:n]
	if len(kr.vecs) == 0 {
		clear(out)
		return out
	}
	for j, v := range kr.vecs {
		types.HashVector(v, kr.sel, out, j > 0)
	}
	return out
}

// spillPartitions is the fan-out of a Grace join and of an overflowing hash
// aggregation.
const spillPartitions = 16

// partitionOf assigns a key, by its byte encoding, to a spill partition.
// The table's own hash is seeded per process; this one is fixed, so which
// rows share a spill file — and with it every spill page count — is the
// same in every run.
func partitionOf(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % spillPartitions)
}
