// Package arena provides the chunked slab allocator behind the optimizer's
// per-query memory: the search memo's entries (internal/core) and the cost
// model's column statistics (internal/stats) are carved from large chunks
// that are zeroed and reused once the query's optimization returns, so a
// search that costs thousands of candidates allocates a handful of objects.
package arena

import "unsafe"

// chunkBytes is the target size of one chunk.
const chunkBytes = 64 << 10

// Slab carves slices of T out of chunks it keeps across Reset calls. Slices
// handed out stay valid (and never move) until Reset. The zero Slab is
// ready to use.
type Slab[T any] struct {
	chunks [][]T
	cur    int // chunk being carved
	used   int // elements handed out of chunks[cur]
}

// Alloc returns a zeroed slice of n elements with no spare capacity, so an
// append by the caller reallocates instead of running into a neighbour.
func (s *Slab[T]) Alloc(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			out := c[s.used : s.used+n : s.used+n]
			s.used += n
			return out
		}
	}
	var zero T
	s.chunks = append(s.chunks, make([]T, max(chunkBytes/int(unsafe.Sizeof(zero)), n)))
	s.used = n
	return s.chunks[s.cur][:n:n]
}

// New returns a pointer to one zeroed element.
func (s *Slab[T]) New() *T { return &s.Alloc(1)[0] }

// Reset zeroes everything handed out, so recycled chunks pin no garbage,
// and makes the chunks available again.
func (s *Slab[T]) Reset() {
	for i := 0; i < s.cur; i++ {
		clear(s.chunks[i])
	}
	if s.cur < len(s.chunks) {
		clear(s.chunks[s.cur][:s.used])
	}
	s.cur, s.used = 0, 0
}

// Bytes returns the memory the slab's chunks hold.
func (s *Slab[T]) Bytes() int {
	var zero T
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n * int(unsafe.Sizeof(zero))
}
