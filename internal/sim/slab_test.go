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
}

func TestMessageView(t *testing.T) {
	var views Slab[Message]
	in := &Message{ID: 7, From: 2, To: 3, SentAt: 11, SentBy: 4, Payload: "envelope"}
	v := in.View(&views, "inner")
	want := *in
	want.Payload = "inner"
	if *v != want || v == in || in.Payload != "envelope" {
		t.Fatalf("View = %+v of %+v", *v, *in)
	}
}
