package types

import (
	"hash/maphash"
	"math"
)

// hashSeed keys string hashing. Hashes never leave the process or decide
// an output order, so a per-process seed is safe.
var hashSeed = maphash.MakeSeed()

// HashValue hashes one value such that Equal values hash alike: an INT
// hashes as the float64 it converts to (so INTs that float64 cannot tell
// apart collide, and Equal separates them), -0 as +0, every NaN as one
// NaN. NULL hashes to a
// constant, which suits grouping (NULL keys form one group). It is the
// hash behind the executor's key table.
func HashValue(v *Value) uint64 {
	switch v.K {
	case KindInt:
		return mix64(math.Float64bits(float64(v.I)))
	case KindFloat:
		if f := v.F(); f == f {
			return mix64(math.Float64bits(f + 0))
		}
		return mix64(nanBits)
	case KindString:
		return maphash.String(hashSeed, v.S())
	case KindBool:
		return mix64(uint64(v.I) + 0x632be59bd9b4e019)
	default:
		return 0x2545f4914f6cdd1d
	}
}

// nanBits are the bits every NaN hashes and encodes as (math.NaN's).
const nanBits = 0x7ff8000000000001

// HashCombine folds the hash of a key's next value into h, the hash of the
// values before it.
func HashCombine(h, next uint64) uint64 {
	return mix64(h*0x9e3779b97f4a7c15 + next)
}

// mix64 is the 64-bit finalizer of MurmurHash3: every input bit reaches
// every output bit, which a table that indexes with the low bits and tags
// with the high ones needs, because the float64 bits of small whole numbers
// differ only in their high bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
