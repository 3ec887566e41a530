package arena

import "testing"

type rec struct {
	p *int
	n int
}

func TestSlabCarvesStableZeroedSlices(t *testing.T) {
	var s Slab[rec]
	a := s.Alloc(3)
	b := s.Alloc(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 {
		t.Fatalf("len/cap: %d/%d, %d", len(a), cap(a), len(b))
	}
	a[2].n, b[0].n = 7, 9
	// An append must not run into the neighbour.
	a = append(a, rec{n: 1})
	if b[0].n != 9 {
		t.Fatalf("append to a carved slice overwrote its neighbour")
	}
	// Pointers stay valid while later allocations open new chunks.
	first := s.New()
	first.n = 42
	for i := 0; i < 3*chunkBytes/16; i++ {
		s.New()
	}
	if first.n != 42 || len(s.chunks) < 2 {
		t.Fatalf("first=%d chunks=%d", first.n, len(s.chunks))
	}
	// A request larger than a chunk gets a chunk of its own.
	if big := s.Alloc(chunkBytes); len(big) != chunkBytes {
		t.Fatalf("big alloc len %d", len(big))
	}
}

func TestSlabResetZeroesAndReuses(t *testing.T) {
	var s Slab[rec]
	x := 5
	for i := 0; i < 2*chunkBytes/16; i++ {
		r := s.New()
		r.p, r.n = &x, i+1
	}
	held := s.Bytes()
	s.Reset()
	if s.Bytes() != held {
		t.Fatalf("Reset dropped chunks: %d -> %d bytes", held, s.Bytes())
	}
	for i := 0; i < 2*chunkBytes/16; i++ {
		if r := s.New(); r.p != nil || r.n != 0 {
			t.Fatalf("element %d not zeroed after Reset: %+v", i, *r)
		}
	}
	if s.Bytes() != held {
		t.Fatalf("reuse after Reset allocated: %d -> %d bytes", held, s.Bytes())
	}
}
