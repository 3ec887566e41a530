package exec

import (
	"hash/fnv"
	"math"
	"slices"
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
// Rows are looked up and inserted a batch at a time: hash readies a
// batch's keys (it hashes them unless the table is dense), lookup takes a
// row and its hash, and insert a row of the batch by position.
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

	ints []int64       // per entry while intKeys: the key
	keys []types.Value // otherwise: width values per entry
	// intKeys: width is 1 and every key inserted so far is an INT.
	intKeys bool
}

// keyTableMinSlots is the slot count of the first allocation: a table of a
// few dozen groups costs a few hundred bytes, and larger ones double.
const keyTableMinSlots = 16

// maxDenseKey bounds the keys a dense table holds: within it float64 holds
// every INT exactly, so a FLOAT probe meets an INT key only at its own
// whole value.
const maxDenseKey = 1 << 53

// denseSpan is how many keys a dense index may span for n entries.
func denseSpan(n int) int64 { return 4*int64(n) + 1024 }

// init empties the table for keys of width values, expecting n entries
// (0: unknown): a hashed table has room for them before its first resize,
// and a dense one sizes its index and entry storage for them on the first
// insert. Storage from an earlier use is kept when large enough.
func (t *keyTable) init(width, n int) {
	t.width, t.n, t.expect = width, 0, n
	t.intKeys, t.dense = width == 1, width == 1
	t.hashes, t.ints, t.keys = t.hashes[:0], t.ints[:0], t.keys[:0]
	if t.dense {
		clear(t.index)
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
		t.leaveDense(nil, nil)
		return
	}
	t.lo = lo
	if n := int(hi - lo + 1); cap(t.index) < n {
		t.index = make([]int32, n)
	} else {
		t.index = t.index[:n]
		clear(t.index)
	}
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

// hash readies the keys of b's rows at cols for lookup and insert: their
// hashes go to b.hashes, one per row. A dense table computes none and
// leaves what b.hashes held; a conversion rewrites them in place.
func (t *keyTable) hash(b *Batch, cols []int) {
	if t.dense {
		b.hashes = slices.Grow(b.hashes[:0], len(b.Rows))[:len(b.Rows)]
		return
	}
	b.hashes = hashKeys(b.Rows, cols, b.hashes)
}

// lookup returns the entry whose key equals the values of row at cols, or
// -1; h is the key's hash (hash), which a dense table does not read.
func (t *keyTable) lookup(h uint64, row types.Row, cols []int) int {
	if t.dense {
		v := &row[cols[0]]
		if v.K == types.KindInt {
			return t.denseAt(v.I)
		}
		return t.denseOther(v)
	}
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 != h>>32 {
			continue
		}
		e := int(uint32(s)) - 1
		if t.intKeys {
			if v := &row[cols[0]]; v.K == types.KindInt && v.I == t.ints[e] ||
				v.K != types.KindInt && types.Equal(types.NewInt(t.ints[e]), *v) {
				return e
			}
		} else if sameKey(t.keys[e*t.width:], row, cols) {
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

// sameKey reports whether key and the values of row at cols are Equal
// position by position (NULL Equal to NULL: grouping, not join, semantics).
func sameKey(key types.Row, row types.Row, cols []int) bool {
	for i, c := range cols {
		if !types.Equal(key[i], row[c]) {
			return false
		}
	}
	return true
}

// insert adds an entry for the key that b.Rows[i] holds at cols and
// returns its id. The caller has looked the key up and not found it.
func (t *keyTable) insert(b *Batch, i int, cols []int) int {
	row := b.Rows[i]
	if t.dense {
		if t.denseInsert(&row[cols[0]]) {
			t.n++
			return t.n - 1
		}
		t.leaveDense(b, cols)
	}
	if t.n == cap(t.hashes) {
		t.resize(max(2*len(t.slots), keyTableMinSlots))
	}
	e, h := t.n, b.hashes[i]
	t.n++
	t.hashes = append(t.hashes, h)
	if t.intKeys {
		if v := &row[cols[0]]; v.K == types.KindInt {
			t.ints = append(t.ints, v.I)
			t.place(h, e)
			return e
		}
		// The first key of another kind: spell the INT keys out as values.
		t.intKeys = false
		t.keys = make([]types.Value, 0, cap(t.hashes))
		for _, k := range t.ints {
			t.keys = append(t.keys, types.NewInt(k))
		}
		t.ints = nil
	}
	for _, c := range cols {
		t.keys = append(t.keys, row[c])
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
			if len(t.index) == 0 {
				t.index = make([]int32, max(t.expect, keyTableMinSlots))
			}
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
	idx := make([]int32, n)
	copy(idx[t.kmin-lo:], t.index[t.kmin-t.lo:t.kmax-t.lo+1])
	t.index, t.lo = idx, lo
}

// leaveDense converts a dense table to the hashed layout: it hashes its
// entries once and places them, then readies b's keys at cols (b nil: no
// batch in flight).
func (t *keyTable) leaveDense(b *Batch, cols []int) {
	t.dense = false
	t.hashes = t.hashes[:0]
	for _, k := range t.ints {
		v := types.NewInt(k)
		t.hashes = append(t.hashes, types.HashValue(&v))
	}
	t.resize(max(slotsFor(max(t.n+1, t.expect)), len(t.slots)))
	if b != nil {
		t.hash(b, cols)
	}
}

// resize installs a slot array of n slots (a power of two, or 0) and entry
// storage for the 3n/4 entries it may hold, carrying the entries over.
// Entry storage grows here and nowhere else, so it doubles with the slots
// instead of following append's finer-grained schedule.
func (t *keyTable) resize(n int) {
	t.slots = make([]uint64, n)
	entries := n / 4 * 3
	t.hashes = append(make([]uint64, 0, entries), t.hashes...)
	if t.intKeys {
		t.ints, t.keys = append(make([]int64, 0, entries), t.ints[:t.n]...), nil
	} else {
		t.ints, t.keys = nil, append(make([]types.Value, 0, entries*t.width), t.keys[:t.n*t.width]...)
	}
	for e, h := range t.hashes {
		t.place(h, e)
	}
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

// key returns the values of entry e's key. The row is dst when the table
// holds bare INTs (dst must have room for one value) and the table's own
// storage otherwise; the caller must not modify it.
func (t *keyTable) key(e int, dst types.Row) types.Row {
	if t.intKeys {
		dst = dst[:1]
		dst[0] = types.NewInt(t.ints[e])
		return dst
	}
	return t.keys[e*t.width : (e+1)*t.width : (e+1)*t.width]
}

// hashKeys writes into out the hash of each row's key at cols (the
// types.HashValue of each column, folded by types.HashCombine in key order;
// 0 for an empty key), one key column at a time over the whole batch, and
// returns out resized to len(rows).
func hashKeys(rows []types.Row, cols []int, out []uint64) []uint64 {
	if cap(out) < len(rows) {
		out = make([]uint64, len(rows))
	}
	out = out[:len(rows)]
	if len(cols) == 0 {
		clear(out)
		return out
	}
	for i, r := range rows {
		out[i] = types.HashValue(&r[cols[0]])
	}
	for _, c := range cols[1:] {
		for i, r := range rows {
			out[i] = types.HashCombine(out[i], types.HashValue(&r[c]))
		}
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
