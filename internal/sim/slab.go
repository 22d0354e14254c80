package sim

// Slab carves zeroed values of one type out of chunks that it keeps: a
// process that wraps every Send in an envelope, or sends a payload
// struct by pointer, pays one allocation per chunk instead of one per
// value, and the pointers it hands out box into a Payload without a
// further allocation. Chunks double from 8 to 256 values, so a short run
// wastes little. Rewind hands the same chunks out again from the first,
// so a Slab reused run over run stops allocating once warm: a value
// handed out before a Rewind is zeroed and handed out again after it,
// and nothing may use it past the Rewind. The zero Slab is ready to use.
type Slab[T any] struct {
	// The chunks in carving order: the first eight inline, so a fresh
	// Slab of up to 1 016 values pays exactly one allocation per chunk.
	inline [8][]T
	more   [][]T
	count  int // chunks held
	next   int // the chunk free is taken from, plus one
	free   []T // unused tail of the chunk being carved
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T { return &s.Carve(1)[0] }

// Carve returns n zero values, in a chunk of their own when n is larger
// than the next chunk would be.
func (s *Slab[T]) Carve(n int) []T {
	for len(s.free) < n {
		if s.next == s.count {
			size := 8
			if s.count > 0 {
				size = min(2*len(s.chunk(s.count-1)), 256)
			}
			if s.count < len(s.inline) {
				s.inline[s.count] = make([]T, max(n, size))
			} else {
				s.more = append(s.more, make([]T, max(n, size)))
			}
			s.count++
		}
		s.free = s.chunk(s.next)
		s.next++
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	clear(v)
	return v
}

// Rewind makes every chunk available again, from the first.
func (s *Slab[T]) Rewind() { s.next, s.free = 0, nil }

func (s *Slab[T]) chunk(i int) []T {
	if i < len(s.inline) {
		return s.inline[i]
	}
	return s.more[i-len(s.inline)]
}
