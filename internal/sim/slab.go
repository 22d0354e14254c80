package sim

// Slab carves zeroed values of one type out of shared chunks: a
// process that wraps every Send in an envelope, or every received
// Message in an inner view, pays one allocation per chunk instead of
// one per value, and the pointers it hands out box into a Payload
// without a further allocation. Chunks double from 8 to 256 values, so
// a short run wastes little; a value lives as long as anything points
// into its chunk. The zero Slab is ready to use.
type Slab[T any] struct {
	free []T // unused tail of the newest chunk
	size int // length of the newest chunk
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.size = min(max(8, 2*s.size), 256)
		s.free = make([]T, s.size)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// View returns a copy of m, carved from views, that carries payload
// instead of m's own: how an envelope wrapper presents a received
// message to the protocol instance running inside it.
func (m *Message) View(views *Slab[Message], payload any) *Message {
	v := views.New()
	*v = *m
	v.Payload = payload
	return v
}
