package model

import (
	"strings"
	"testing"
)

func TestHistoryRecordAndQuery(t *testing.T) {
	t.Parallel()
	h := NewHistory(4)
	h.Record(1, 5, NewProcessSet(2))
	h.Record(1, 10, NewProcessSet(2, 3))
	h.Record(2, 7, EmptySet())

	if got := h.SampleCount(1); got != 2 {
		t.Fatalf("SampleCount(p1) = %d, want 2", got)
	}
	if got := len(h.Spans(1)); got != 2 {
		t.Fatalf("Spans(p1) = %d entries, want 2 (outputs differ)", got)
	}
	if out, ok := h.Last(1, 9); !ok || !out.Equal(NewProcessSet(2)) {
		t.Errorf("Last(p1, 9) = %v,%v; want {p2},true", out, ok)
	}
	if out, ok := h.Last(1, 10); !ok || !out.Equal(NewProcessSet(2, 3)) {
		t.Errorf("Last(p1, 10) = %v,%v", out, ok)
	}
	if _, ok := h.Last(1, 4); ok {
		t.Error("Last(p1, 4) found a sample before any were recorded")
	}
	if _, ok := h.Last(3, 100); ok {
		t.Error("Last(p3) found samples for a process that never queried")
	}
}

func TestHistoryRunLengthEncodes(t *testing.T) {
	t.Parallel()
	h := NewHistory(4)
	for tt := Time(0); tt < 100; tt++ {
		h.Record(1, tt, EmptySet())
	}
	for tt := Time(100); tt < 200; tt++ {
		h.Record(1, tt, NewProcessSet(3))
	}
	if got := len(h.Spans(1)); got != 2 {
		t.Fatalf("200 samples with one transition encoded as %d spans, want 2", got)
	}
	if got := h.SampleCount(1); got != 200 {
		t.Fatalf("SampleCount = %d, want 200", got)
	}
	sp := h.Spans(1)
	if sp[0].From != 0 || sp[0].To != 99 || sp[0].Count != 100 {
		t.Fatalf("span[0] = %+v, want [0,99]x100", sp[0])
	}
	if sp[1].From != 100 || sp[1].To != 199 || sp[1].Count != 100 {
		t.Fatalf("span[1] = %+v, want [100,199]x100", sp[1])
	}
	if out, ok := h.Last(1, 150); !ok || !out.Equal(NewProcessSet(3)) {
		t.Fatalf("Last(p1, 150) = %v,%v", out, ok)
	}
	if got := h.MaxTime(); got != 199 {
		t.Fatalf("MaxTime = %d, want 199", got)
	}
}

func TestHistoryOrderEnforced(t *testing.T) {
	t.Parallel()
	h := NewHistory(4)
	h.Record(1, 10, EmptySet())
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Record did not panic")
		}
	}()
	h.Record(1, 9, EmptySet())
}

func TestSuspectedFrom(t *testing.T) {
	t.Parallel()
	h := NewHistory(4)
	// p1's view of p2: suspected at t=3, cleared at t=5 (a mistake),
	// suspected again from t=8 onward.
	h.Record(1, 3, NewProcessSet(2))
	h.Record(1, 5, EmptySet())
	h.Record(1, 8, NewProcessSet(2))
	h.Record(1, 9, NewProcessSet(2))
	h.Record(1, 12, NewProcessSet(2, 4))

	from, ok := h.SuspectedFrom(1, 2)
	if !ok || from != 8 {
		t.Errorf("SuspectedFrom(p1,p2) = %d,%v; want 8,true (mistake at t=5 resets)", from, ok)
	}
	if _, ok := h.SuspectedFrom(1, 3); ok {
		t.Error("SuspectedFrom(p1,p3): p3 never suspected")
	}
	if from, ok := h.SuspectedFrom(1, 4); !ok || from != 12 {
		t.Errorf("SuspectedFrom(p1,p4) = %d,%v; want 12,true", from, ok)
	}
	if first, ok := h.EverSuspected(1, 2); !ok || first != 3 {
		t.Errorf("EverSuspected(p1,p2) = %d,%v; want 3,true", first, ok)
	}
}

// TestHistoryChangePointEdges pins the change-point encoding at its
// boundaries: Last exactly at a transition tick, permanent suspicion
// starting at the very first sample, a target appearing only in the
// final sample, and queries against an empty history.
func TestHistoryChangePointEdges(t *testing.T) {
	t.Parallel()

	t.Run("last-at-transition-tick", func(t *testing.T) {
		h := NewHistory(4)
		h.Record(1, 5, EmptySet())
		h.Record(1, 6, EmptySet())
		h.Record(1, 7, NewProcessSet(2)) // transition at t=7
		if out, ok := h.Last(1, 7); !ok || !out.Equal(NewProcessSet(2)) {
			t.Errorf("Last at the transition tick = %v,%v; want {p2},true", out, ok)
		}
		if out, ok := h.Last(1, 6); !ok || !out.IsEmpty() {
			t.Errorf("Last just before the transition = %v,%v; want {},true", out, ok)
		}
	})

	t.Run("suspicion-from-first-sample", func(t *testing.T) {
		h := NewHistory(4)
		h.Record(1, 3, NewProcessSet(2))
		h.Record(1, 4, NewProcessSet(2, 3))
		h.Record(1, 9, NewProcessSet(2))
		if from, ok := h.SuspectedFrom(1, 2); !ok || from != 3 {
			t.Errorf("SuspectedFrom = %d,%v; want 3,true (suspicion starts at the first sample)", from, ok)
		}
	})

	t.Run("suspected-only-in-final-sample", func(t *testing.T) {
		h := NewHistory(4)
		h.Record(1, 1, EmptySet())
		h.Record(1, 2, EmptySet())
		h.Record(1, 8, NewProcessSet(4))
		if first, ok := h.EverSuspected(1, 4); !ok || first != 8 {
			t.Errorf("EverSuspected = %d,%v; want 8,true (q appears only in the final sample)", first, ok)
		}
		if from, ok := h.SuspectedFrom(1, 4); !ok || from != 8 {
			t.Errorf("SuspectedFrom = %d,%v; want 8,true", from, ok)
		}
	})

	t.Run("empty-history-queries", func(t *testing.T) {
		h := NewHistory(4)
		if _, ok := h.Last(1, 100); ok {
			t.Error("Last on empty history reported a sample")
		}
		if _, ok := h.FinalSuspicions(2); ok {
			t.Error("FinalSuspicions on empty history reported a sample")
		}
		if _, ok := h.SuspectedFrom(1, 2); ok {
			t.Error("SuspectedFrom on empty history reported suspicion")
		}
		if _, ok := h.EverSuspected(1, 2); ok {
			t.Error("EverSuspected on empty history reported suspicion")
		}
		if got := h.MaxTime(); got != 0 {
			t.Errorf("MaxTime on empty history = %d, want 0", got)
		}
		if got := h.String(); got != "H{}" {
			t.Errorf("String on empty history = %q, want H{}", got)
		}
	})
}

func TestFinalSuspicionsAndMaxTime(t *testing.T) {
	t.Parallel()
	h := NewHistory(4)
	if _, ok := h.FinalSuspicions(1); ok {
		t.Error("FinalSuspicions on empty history should report none")
	}
	h.Record(1, 4, NewProcessSet(3))
	h.Record(2, 11, NewProcessSet(1))
	if out, ok := h.FinalSuspicions(1); !ok || !out.Equal(NewProcessSet(3)) {
		t.Errorf("FinalSuspicions(p1) = %v,%v", out, ok)
	}
	if got := h.MaxTime(); got != 11 {
		t.Errorf("MaxTime = %d, want 11", got)
	}
}

func TestHistoryString(t *testing.T) {
	t.Parallel()
	h := NewHistory(4)
	h.Record(2, 1, NewProcessSet(4))
	if got := h.String(); !strings.Contains(got, "p2") || !strings.Contains(got, "{p4}") {
		t.Errorf("String = %q", got)
	}
}
