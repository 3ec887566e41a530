package types

import (
	"math"
	"slices"
	"sync"
)

// KeyTable maps a key — the values of some key columns at one position —
// to a dense entry id, numbered from 0 in insertion order. It is the one
// place the engine finds distinct keys: the executor's hash join keeps a
// chain of build rows per entry and its hash aggregation a group's
// accumulators, and ANALYZE counts a column's distinct values as the
// entries of a one-column table.
//
// A single-column table whose column may hold INTs starts dense: while
// every key inserted is an INT within ±2^53 and the keys span at most
// denseSpan(entries), an entry id sits in index at key − lo, and a lookup
// or insert is one index operation with no hash computed or stored. The
// first insert that breaks the rule converts the table to the hashed
// layout, keeping every entry id. A table over a VARCHAR, FLOAT or BOOLEAN
// column, or over several columns, starts hashed.
//
// Hashed layout: an open-addressing, power-of-two, linear-probing slot
// array whose words pack the upper half of the key hash with the entry id,
// so a probe that misses touches nothing but that array; beside it, per
// entry, the full hash (a resize re-places entries without rehashing keys).
//
// Either way the table keeps the keys in one Vector per key column, entry
// e's at position e, under the Vector's own kind rule: INTs in Ints until
// a key of another kind mixes the vector into Vals, and VARCHARs by
// reference to the bytes they were read from (AppendSel).
//
// Contract: keys match by Equal position by position, and hashKeys agrees
// with it — Equal keys hash alike (numerics hash through their float64
// bits with -0 folded into +0 and every NaN as one, so INT 2 meets FLOAT
// 2.0; INT pairs are then told apart exactly by Equal). NULL is Equal to
// NULL here, which is what GROUP BY wants; the join never offers a NULL
// key.
//
// Keys are looked up and added a batch at a time, as KeyRows: the key
// columns' vectors and the positions of the batch's rows in them. Hash
// readies the keys (it hashes them unless the table is dense); Lookup
// finds every row's entry, and Find and Add take the i-th row.
type KeyTable struct {
	width  int // values per key
	n      int // entries
	expect int // the entries the table was sized for

	dense      bool    // see above; only ever true for width 1
	lo         int64   // dense: the key at index[0]
	index      []int32 // dense: entry id + 1 of the key lo+i; 0 = none
	kmin, kmax int64   // dense: the least and the greatest key, once there is one

	slots  []uint64 // hashed: hash>>32 <<32 | entry id + 1; 0 = empty
	hashes []uint64 // hashed: per entry

	scratch []uint64 // the key hashes of the batch being looked up (Hash)
	// ends[i] is the slot at which row i's probe sequence ended in the
	// Lookup of the batch last hashed; resume is set while no slot array
	// has been installed since, and every slot before ends[i] then holds
	// another key than row i's, as it did.
	ends   []uint64
	resume bool
	all    []int32  // 0, 1, 2, ...: the entries, as positions in keys
	keys   []Vector // per key column: entry e's value at position e
}

// keyTables recycles key tables, their storage grown, across uses; a
// table whose index or slots outgrew maxKeptKeys is let go instead, so
// that the clear a reused table's Init does stays small.
var keyTables = sync.Pool{New: func() any { return new(KeyTable) }}

const maxKeptKeys = 1 << 16

// GetKeyTable returns an empty table from the pool; Init readies it.
func GetKeyTable() *KeyTable { return keyTables.Get().(*KeyTable) }

// PutKeyTable returns t to the pool, holding no key.
func PutKeyTable(t *KeyTable) {
	if t == nil || cap(t.index) > maxKeptKeys || len(t.slots) > maxKeptKeys {
		return
	}
	for j := range t.keys {
		t.keys[j].Reset() // drop the VARCHARs they point into
	}
	keyTables.Put(t)
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

// KeyEntryBytes is what a table entry holds in memory beyond its key
// values: its share of the slots (at most 3/4 full), and its hash.
const KeyEntryBytes = 8*4/3 + 8

// Init empties the table for keys of width values, expecting n entries
// (0: unknown): a hashed table has room for them before its first resize,
// and a dense one sizes its index and key storage for them on the first
// insert. kind is the declared kind of a one-column key (KindNull when
// unknown): only a key that may be an INT starts the table dense. Storage
// from an earlier use is kept when large enough.
func (t *KeyTable) Init(width, n int, kind Kind) {
	t.width, t.n, t.expect = width, 0, n
	t.dense, t.resume = width == 1 && kind != KindString && kind != KindFloat && kind != KindBool, false
	t.hashes = t.hashes[:0]
	t.keys = slices.Grow(t.keys[:0], width)[:width]
	for j := range t.keys {
		t.keys[j].Reset()
	}
	if t.dense {
		t.index = t.index[:0] // Reserve or the first insert sizes and clears it
		return
	}
	slots := slotsFor(n)
	if slots > len(t.slots) {
		t.resize(slots)
		return
	}
	clear(t.slots)
}

// Len returns the number of entries.
func (t *KeyTable) Len() int { return t.n }

// Dense reports whether the table is in the dense layout.
func (t *KeyTable) Dense() bool { return t.dense }

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

// Reserve readies an empty dense table for the keys of v when they are
// INTs: it sizes the index to span them, or, when they span too many,
// leaves the dense layout before the first insert.
func (t *KeyTable) Reserve(v *Vector) {
	lo, hi, ok := v.IntRange()
	if !t.dense || !ok {
		return
	}
	if lo < -maxDenseKey || hi > maxDenseKey || hi-lo >= denseSpan(t.expect) {
		t.leaveDense(nil)
		return
	}
	t.lo, t.index = lo, zeroed(t.index, int(hi-lo+1))
}

// KeyRows are a batch's keys as a key table reads them: Vecs[j] is the
// vector of key column j, and row i sits at position Sel[i] in each;
// hashes[i] is its key's hash (KeyTable.Hash).
type KeyRows struct {
	buf    [2]*Vector // backs Vecs for keys of up to two columns
	Vecs   []*Vector
	Sel    []int32
	hashes []uint64
}

// Of points kr at the rows at sel of cols, keyed by the columns at.
func (kr *KeyRows) Of(cols []Vector, at []int, sel []int32) *KeyRows {
	if kr.Vecs == nil {
		kr.Vecs = kr.buf[:0]
	}
	kr.Vecs = kr.Vecs[:0]
	for _, c := range at {
		kr.Vecs = append(kr.Vecs, &cols[c])
	}
	kr.Sel = sel
	return kr
}

// MayHoldNull reports whether some key column may hold a NULL: whether
// NullKey needs asking at all.
func (kr *KeyRows) MayHoldNull() bool {
	for _, v := range kr.Vecs {
		if v.Nulls != nil || v.K != KindInt && v.K != KindFloat && v.K != KindString && v.K != KindBool {
			return true
		}
	}
	return false
}

// NullKey reports whether row i's key holds a NULL.
func (kr *KeyRows) NullKey(i int) bool {
	for _, v := range kr.Vecs {
		if v.IsNull(int(kr.Sel[i])) {
			return true
		}
	}
	return false
}

// Hash readies kr's keys for Lookup, Find and Add, which take the batch
// last hashed: their hashes go to kr.hashes, one per row. A dense table
// computes none; a conversion computes them.
func (t *KeyTable) Hash(kr *KeyRows) {
	t.resume = false
	if !t.dense {
		kr.hashes = hashKeys(kr, t.scratch)
		t.scratch = kr.hashes // recycled with the table
	}
}

// Lookup writes into out[i] the entry whose key equals row i's of kr, or
// -1, for every row. A dense table reads an INT key column's Ints
// directly; a hashed one notes where each row's probe ended, so that a
// Find or Add of the row resumes there.
func (t *KeyTable) Lookup(kr *KeyRows, out []int32) {
	switch v := kr.Vecs; {
	case t.dense && v[0].K == KindInt && v[0].Nulls == nil:
		for i, k := range kr.Sel {
			out[i] = int32(t.denseAt(v[0].Ints[k]))
		}
	case t.dense || len(t.slots) == 0:
		for i := range kr.Sel {
			out[i] = int32(t.Find(kr, i))
		}
	default:
		t.resume, t.ends = false, slices.Grow(t.ends[:0], len(kr.Sel))[:len(kr.Sel)]
		held := t.heldInts(kr)
		for i := range kr.Sel {
			e, end := t.probe(kr, i, held)
			out[i], t.ends[i] = int32(e), end
		}
		t.resume = true
	}
}

// Find returns the entry whose key equals row i's of kr, or -1.
func (t *KeyTable) Find(kr *KeyRows, i int) int {
	k := int(kr.Sel[i])
	if t.dense {
		if x, ok := intAt(kr.Vecs[0], k); ok {
			return t.denseAt(x)
		}
		return t.denseFloat(kr.Vecs[0], k)
	}
	if len(t.slots) == 0 {
		return -1
	}
	e, _ := t.probe(kr, i, t.heldInts(kr))
	return e
}

// Add returns the entry whose key equals row i's of kr, adding one when
// there is none; added reports which.
func (t *KeyTable) Add(kr *KeyRows, i int) (e int, added bool) {
	if t.dense {
		if e := t.Find(kr, i); e >= 0 {
			return e, false
		}
		if x, ok := intAt(kr.Vecs[0], int(kr.Sel[i])); ok && t.denseInsert(x) {
			t.n++
			return t.n - 1, true
		}
		t.leaveDense(kr)
	}
	var slot uint64
	held := t.heldInts(kr)
	if len(t.slots) > 0 {
		if e, slot = t.probe(kr, i, held); e >= 0 {
			return e, false
		}
	}
	e, h := t.n, kr.hashes[i]
	if t.n == len(t.slots)/4*3 { // full: resize holds 3/4 of its slots
		t.resize(max(2*len(t.slots), keyTableMinSlots))
		slot = t.free(h)
	}
	t.slots[slot] = h&^math.MaxUint32 | uint64(e+1)
	t.n++
	t.hashes = append(t.hashes, h)
	if held != nil {
		t.keys[0].Ints = append(t.keys[0].Ints, kr.Vecs[0].Ints[kr.Sel[i]])
		t.keys[0].N++
		return e, true
	}
	for j, v := range kr.Vecs {
		t.keys[j].AppendSel(v, kr.Sel[i:i+1])
	}
	return e, true
}

// heldInts returns the table's keys when they and kr's are one INT column
// without NULLs, for probe to compare inline, or nil.
func (t *KeyTable) heldInts(kr *KeyRows) []int64 {
	if v := kr.Vecs; len(v) == 1 && v[0].K == KindInt && t.keys[0].K == KindInt && v[0].Nulls == nil && t.keys[0].Nulls == nil {
		return t.keys[0].Ints
	}
	return nil
}

// probe walks row i's probe sequence in the hashed layout, from where a
// Lookup left it when it did: it returns the entry whose key equals the
// row's and its slot, or -1 and the empty slot the sequence ended at. With
// held (heldInts) the keys compare as INTs inline.
func (t *KeyTable) probe(kr *KeyRows, i int, held []int64) (int, uint64) {
	h, k := kr.hashes[i], int(kr.Sel[i])
	mask := uint64(len(t.slots) - 1)
	j := h & mask
	if t.resume {
		j = t.ends[i]
	}
	for ; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s == 0 {
			return -1, j
		}
		if s>>32 != h>>32 {
			continue
		}
		e := int(uint32(s)) - 1
		if held != nil && held[e] == kr.Vecs[0].Ints[k] || held == nil && t.sameKey(e, kr, k) {
			return e, j
		}
	}
}

// sameKey reports whether entry e's key and the key at position k of kr's
// vectors are Equal position by position (NULL Equal to NULL: grouping,
// not join, semantics).
func (t *KeyTable) sameKey(e int, kr *KeyRows, k int) bool {
	for j, v := range kr.Vecs {
		if !Equal(t.keys[j].Value(e), v.Value(k)) {
			return false
		}
	}
	return true
}

// intAt returns the value at position k of v when it is an INT.
func intAt(v *Vector, k int) (int64, bool) {
	switch {
	case v.K == KindInt && !v.nullAt(k):
		return v.Ints[k], true
	case v.K == kindMixed && v.Vals[k].K == KindInt:
		return v.Vals[k].I, true
	}
	return 0, false
}

// denseAt returns the entry of key k in a dense table, or -1. The keys
// are within ±2^53 and k is an int64, so k-lo wraps into the index's range
// only when k is in it.
func (t *KeyTable) denseAt(k int64) int {
	if i := uint64(k - t.lo); i < uint64(len(t.index)) {
		return int(t.index[i]) - 1
	}
	return -1
}

// denseFloat returns the entry of a dense table Equal to the value at
// position k of v, which is not an INT, or -1: a FLOAT that is a whole
// number within ±2^53 meets the INT of its value, and no other value is
// Equal to an INT the table holds.
func (t *KeyTable) denseFloat(v *Vector, k int) int {
	x := v.Value(k)
	f := x.F()
	if x.K != KindFloat || !(f >= -maxDenseKey && f <= maxDenseKey) || f != math.Trunc(f) { // NaN fails the range test
		return -1
	}
	return t.denseAt(int64(f))
}

// denseInsert adds k as the next entry of a dense table and reports
// whether it could: k must be within ±2^53, and the keys with it must
// span no more than denseSpan allows.
func (t *KeyTable) denseInsert(k int64) bool {
	if k < -maxDenseKey || k > maxDenseKey {
		return false
	}
	keys := &t.keys[0]
	if t.n == 0 {
		t.kmin, t.kmax = k, k
		if uint64(k-t.lo) >= uint64(len(t.index)) {
			// The index is centred on the first key and sized for the
			// entries expected (Reserve may have placed it already).
			t.index = zeroed(t.index, max(t.expect, keyTableMinSlots))
			t.lo = k - int64(len(t.index)/2)
		}
		keys.K = KindInt
		if cap(keys.Ints) < t.expect {
			keys.Ints = make([]int64, 0, t.expect)
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
	keys.Ints = append(keys.Ints, k)
	keys.N++
	return true
}

// growIndex reallocates the dense index to hold k, the keys spanning kmin
// to kmax with it, in at most limit positions. The index at least doubles,
// toward k, keeping the room it had on its other side; when that would
// pass the limit, the keys sit in the middle of a limit-sized index, so
// that keys arriving on either side do not reallocate it again.
func (t *KeyTable) growIndex(k, kmin, kmax, limit int64) {
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
// keys once and places them, then readies kr's keys (kr nil: no batch in
// flight).
func (t *KeyTable) leaveDense(kr *KeyRows) {
	t.dense = false
	t.hashes = slices.Grow(t.hashes[:0], t.n)[:t.n]
	HashVector(&t.keys[0], t.entries(), t.hashes, false)
	t.resize(max(slotsFor(max(t.n+1, t.expect)), len(t.slots)))
	if kr != nil {
		t.Hash(kr)
	}
}

// entries returns the positions of the entries' keys: 0, 1, ..., n-1.
func (t *KeyTable) entries() []int32 {
	for len(t.all) < t.n {
		t.all = append(t.all, int32(len(t.all)))
	}
	return t.all[:t.n]
}

// resize installs a slot array of n slots (a power of two, or 0) and entry
// storage for the 3n/4 entries it may hold, carrying the entries over.
// Entry storage grows here and nowhere else, so it doubles with the slots
// instead of following append's finer-grained schedule; Add resizes when
// the entries reach 3/4 of the slots.
func (t *KeyTable) resize(n int) {
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
		clear(t.slots)
	} else {
		t.slots = make([]uint64, n)
	}
	t.resume = false
	entries := n / 4 * 3
	t.hashes = roomFor(t.hashes, entries)
	for j := range t.keys {
		switch v := &t.keys[j]; v.K {
		case KindInt, KindBool:
			v.Ints = roomFor(v.Ints, entries)
		case KindFloat:
			v.Floats = roomFor(v.Floats, entries)
		case kindMixed:
			v.Vals = roomFor(v.Vals, entries)
		}
	}
	for e, h := range t.hashes {
		t.slots[t.free(h)] = h&^math.MaxUint32 | uint64(e+1)
	}
}

// roomFor returns s with a capacity of at least n, n >= len(s): its own
// storage, all of it, when that has room (an earlier use's), or new
// storage of n.
func roomFor[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return append(make([]T, 0, n), s...)
}

// free returns the first empty slot of h's probe sequence.
func (t *KeyTable) free(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// AppendKeys appends the keys of entries 0, 1, ..., n-1 to cols, key
// column j to cols[j], as Vector.AppendSel copies them: INTs slice to
// slice, VARCHARs by reference.
func (t *KeyTable) AppendKeys(cols []Vector) {
	for j := range cols {
		cols[j].AppendSel(&t.keys[j], t.entries())
	}
}

// hashKeys writes into out the hash of each row's key of kr (the
// HashValue of each column, folded by HashCombine in key order; 0 for an
// empty key), one key column at a time over the whole batch, and returns
// out resized to the rows.
func hashKeys(kr *KeyRows, out []uint64) []uint64 {
	n := len(kr.Sel)
	if cap(out) < n {
		out = make([]uint64, n)
	}
	out = out[:n]
	if len(kr.Vecs) == 0 {
		clear(out)
		return out
	}
	for j, v := range kr.Vecs {
		HashVector(v, kr.Sel, out, j > 0)
	}
	return out
}
