package sim

// Slab carves zeroed values of one type out of shared chunks: a process
// that wraps every Send in an envelope, or sends a payload struct by
// pointer, pays one allocation per chunk instead of one per value, and
// the pointers it hands out box into a Payload without a further
// allocation. Chunks double from 8 to 256 values, so a short run wastes
// little; a value lives as long as anything points into its chunk, and
// is never handed out twice. The zero Slab is ready to use.
type Slab[T any] struct {
	free []T // unused tail of the newest chunk
	size int // length of the newest chunk
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T { return &s.Carve(1)[0] }

// Carve returns n fresh zero values, in a chunk of their own when n is
// larger than the next chunk would be.
func (s *Slab[T]) Carve(n int) []T {
	if len(s.free) < n {
		s.size = max(n, min(max(8, 2*s.size), 256))
		s.free = make([]T, s.size)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}
