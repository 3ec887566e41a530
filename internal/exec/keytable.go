package exec

import (
	"hash/fnv"
	"math"

	"aggview/internal/types"
)

// keyTable maps a key — the values at some column positions of a row — to a
// dense entry id, numbered from 0 in insertion order. Hash join and hash
// aggregation both sit on it: the join keeps a chain of build rows per
// entry, the aggregation a group's accumulators.
//
// Layout: an open-addressing, power-of-two, linear-probing slot array whose
// words pack the upper half of the key hash with the entry id, so a probe
// that misses touches nothing but that array; beside it, per entry, the
// full hash (a resize re-places entries without rehashing keys) and a copy
// of the key's values. While a single-column table has seen only INT keys
// it keeps them as bare int64s, and an INT probe is one integer compare.
//
// Contract: keys match by types.Equal position by position, and hashKeys
// agrees with it — Equal keys hash alike (numerics hash through their
// float64 bits with -0 folded into +0, so INT 2 meets FLOAT 2.0; INT pairs
// are then told apart exactly by Equal). NULL is Equal to NULL here, which
// is what GROUP BY wants; the join never offers a NULL key.
type keyTable struct {
	width  int           // values per key
	slots  []uint64      // hash>>32 <<32 | entry id + 1; 0 = empty
	hashes []uint64      // per entry
	ints   []int64       // per entry while intKeys: the key
	keys   []types.Value // otherwise: width values per entry
	// intKeys: width is 1 and every key inserted so far is an INT.
	intKeys bool
}

// keyTableMinSlots is the slot count of the first allocation: a table of a
// few dozen groups costs a few hundred bytes, and larger ones double.
const keyTableMinSlots = 16

// init empties the table for keys of width values, with room for n entries
// before the first resize (n = 0: allocate on first insert). Storage from
// an earlier use is kept when large enough.
func (t *keyTable) init(width, n int) {
	t.width = width
	slots := 0
	if n > 0 {
		slots = keyTableMinSlots
		for slots*3 < n*4 {
			slots *= 2
		}
	}
	t.intKeys = width == 1
	if slots > len(t.slots) || (t.intKeys && cap(t.ints) < cap(t.hashes)) {
		t.hashes = t.hashes[:0]
		t.resize(max(slots, len(t.slots)))
		return
	}
	clear(t.slots)
	t.hashes, t.ints, t.keys = t.hashes[:0], t.ints[:0], t.keys[:0]
}

// len returns the number of entries.
func (t *keyTable) len() int { return len(t.hashes) }

// resize installs a slot array of n slots (a power of two, or 0) and entry
// storage for the 3n/4 entries it may hold, carrying the entries over.
// Entry storage grows here and nowhere else, so it doubles with the slots
// instead of following append's finer-grained schedule.
func (t *keyTable) resize(n int) {
	t.slots = make([]uint64, n)
	entries := n / 4 * 3
	t.hashes = append(make([]uint64, 0, entries), t.hashes...)
	if t.intKeys {
		t.ints, t.keys = append(make([]int64, 0, entries), t.ints[:len(t.hashes)]...), nil
	} else {
		t.ints, t.keys = nil, append(make([]types.Value, 0, entries*t.width), t.keys[:len(t.hashes)*t.width]...)
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

// lookup returns the entry whose key equals the values of row at cols,
// given their hash, or -1.
func (t *keyTable) lookup(h uint64, row types.Row, cols []int) int {
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

// insert adds an entry for the key that row holds at cols and returns its
// id. The caller has looked the key up and not found it.
func (t *keyTable) insert(h uint64, row types.Row, cols []int) int {
	if len(t.hashes) == cap(t.hashes) {
		t.resize(max(2*len(t.slots), keyTableMinSlots))
	}
	e := len(t.hashes)
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

// hashKeys writes into out the hash of each row's key at cols (what
// types.Row.Hash returns), one key column at a time over the whole batch,
// and returns out resized to len(rows).
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
