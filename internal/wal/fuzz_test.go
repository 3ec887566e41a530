package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary record payloads (kind, version, body; the
// part of a frame after its LSN) to the decoder recovery runs on every
// CRC-valid frame. Decoding must fail or yield a record that re-encodes to
// exactly the input bytes, and must never panic. The committed corpus under
// testdata/fuzz/FuzzDecodeRecord holds one encoding of every live record
// kind, the two transaction frames, payloads of the reserved create-index
// and txn-abort kinds (which must be refused), and INSERT row and column
// counts far larger than their payload (which must be refused before
// anything is sized from them); `make fuzz` searches beyond it.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		version, rec, err := decodeRecord(b)
		if err != nil {
			return
		}
		if got := encodeRecord(version, rec); !bytes.Equal(got, b) {
			t.Fatalf("decoded %s record re-encodes differently:\n in  %x\n out %x", rec.Kind(), b, got)
		}
	})
}
