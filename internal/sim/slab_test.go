package sim

import "testing"

// TestSlabHandsOutDistinctZeroValues carves well past the largest
// chunk: every pointer must be distinct, zero on arrival, and keep what
// was written through it while later chunks are allocated.
func TestSlabHandsOutDistinctZeroValues(t *testing.T) {
	var s Slab[Message]
	const count = 1000
	ptrs := make([]*Message, count)
	for i := range ptrs {
		m := s.New()
		if *m != (Message{}) {
			t.Fatalf("value %d arrived non-zero: %+v", i, *m)
		}
		m.ID = int64(i + 1)
		ptrs[i] = m
	}
	seen := make(map[*Message]bool, count)
	for i, m := range ptrs {
		if seen[m] || m.ID != int64(i+1) {
			t.Fatalf("value %d: shared or overwritten (ID %d)", i, m.ID)
		}
		seen[m] = true
	}
	// 8+16+…+256 = 504 values in six chunks, then two chunks of 256.
	if allocs := testing.AllocsPerRun(1, func() {
		var s Slab[Message]
		for i := 0; i < count; i++ {
			s.New()
		}
	}); allocs != 8 {
		t.Errorf("%d values cost %.0f allocations, want 8 chunks", count, allocs)
	}
	// A run larger than any chunk gets a chunk of its own, capped at its
	// length so appending to it cannot reach a later value.
	big := s.Carve(300)
	if len(big) != 300 || cap(big) != 300 || big[299] != (Message{}) {
		t.Fatalf("Carve(300) = len %d cap %d", len(big), cap(big))
	}
	if next := s.New(); next == &big[299] || *next != (Message{}) {
		t.Fatal("the value after a large carve is shared or non-zero")
	}
}

// TestSlabRewindReusesChunks scribbles over every value a Slab handed
// out, rewinds it and carves the same sequence again: every value must
// arrive zero and sit in a chunk the Slab already held, so a warm Slab
// allocates nothing.
func TestSlabRewindReusesChunks(t *testing.T) {
	var s Slab[Message]
	sizes := []int{1, 3, 1, 9, 300, 1, 2, 40} // 300: a chunk of its own
	carve := func(vals [][]Message) [][]Message {
		for round := 0; round < 20; round++ {
			for _, k := range sizes {
				vals = append(vals, s.Carve(k))
			}
		}
		return vals
	}
	vals := carve(make([][]Message, 0, 20*len(sizes)))
	for _, v := range vals {
		for i := range v {
			v[i] = Message{ID: -1, SentBy: -1, Payload: "stale"}
		}
	}
	held := make(map[*Message]bool)
	for c := 0; c < s.count; c++ {
		chunk := s.chunk(c)
		for i := range chunk {
			held[&chunk[i]] = true
		}
	}
	chunks := s.count

	s.Rewind()
	for _, v := range carve(vals[:0]) {
		for i := range v {
			if v[i] != (Message{}) || !held[&v[i]] {
				t.Fatalf("after Rewind a value arrived as %+v, in a retained chunk: %v", v[i], held[&v[i]])
			}
		}
	}
	if s.count != chunks {
		t.Errorf("the second pass grew the Slab from %d to %d chunks", chunks, s.count)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		s.Rewind()
		carve(vals[:0])
	}); allocs != 0 {
		t.Errorf("a warm Slab allocated %.0f times per pass", allocs)
	}
}
