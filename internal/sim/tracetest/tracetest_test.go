package tracetest

import (
	"bytes"
	"strings"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
)

// sample is a small engine-built trace with every kind of record: λ and
// received steps, sends, a crash, and (under loss) undelivered messages.
func sample(t testing.TB) *sim.Trace {
	t.Helper()
	tr, err := sim.Execute(sim.Config{
		N: 5, Automaton: scenario.BusyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
		Pattern: model.MustPattern(5).MustCrash(2, 9),
		Horizon: 40, Seed: 4, Policy: &sim.RandomFairPolicy{},
		Faults: &sim.LinkFaults{DropSteps: []sim.RateStep{{Pct: 25}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Undelivered) == 0 {
		t.Fatal("sample run left nothing undelivered")
	}
	return tr
}

// TestDecodeRejects walks the ways an encoding can be almost right. The
// decoder is what the equivalence proof leans on, so it must accept
// only what the encoder writes.
func TestDecodeRejects(t *testing.T) {
	t.Parallel()
	good := sample(t).AppendCanonical(nil)
	if _, err := Decode(good); err != nil {
		t.Fatalf("sample encoding rejected: %v", err)
	}
	head := len(sim.DigestVersion)
	// An event by p1 at time 1, λ received, with the sends that follow.
	const step = "\x00\x01\x01\x00\x01\x00"
	for name, bad := range map[string][]byte{
		"empty":           {},
		"other version":   append([]byte("fdtrace/2"), good[head:]...),
		"truncated":       good[:len(good)-1],
		"trailing byte":   append(bytes.Clone(good), 0),
		"padded N":        append(append(bytes.Clone(good[:head]), 0x85, 0x00), good[head+1:]...),
		"pattern n = 3":   []byte(sim.DigestVersion + "\x04\x01\x04\x00\x00\x00\x00\x00"),
		"pattern n = 200": []byte(sim.DigestVersion + "\x04\x01\xc9\x01\x00\x00"),
		"crash time < 0":  []byte(sim.DigestVersion + "\x04\x01\x05\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00"),
		"huge count":      []byte(sim.DigestVersion + "\x04\x01\x00\xff\xff\xff\xff\x0f"),
		// One λ event without sends, then a back-reference into it.
		"reference to nothing": []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x00\x00" + "\x02\x02\x00"),
		// Event 0 receives Events[0].Sends[0]: its own send, not yet written.
		"forward reference": []byte(sim.DigestVersion + "\x04\x01\x00\x01" + "\x00\x01\x01\x00\x01\x02\x00\x01\x00\x02\x01\x01m\x00" + "\x00"),
		// IDs 1 and 3 in one event; Sends[1] is not where its ID says.
		"reference the encoder would not write": []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x02\x00\x02\x01\x01m\x02\x02\x01\x01m\x00" + "\x02\x03\x00"),
		"λ undelivered":                         []byte(sim.DigestVersion + "\x04\x01\x00\x00" + "\x02\x00"),
		// One send, in a run of none, or of two.
		"zero-length run":         []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x01\x00\x02\x00\x01m\x00" + "\x00"),
		"run longer than sends":   []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x01\x00\x02\x02\x01m\x00" + "\x00"),
		"padded run length":       []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x01\x00\x02\x81\x00\x01m\x00" + "\x00"),
		"run past N":              []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x02\x00\x04\x02\x01m\x00" + "\x00"),
		"run from p0":             []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x02\x00\x00\x02\x01m\x00" + "\x00"),
		"complement with a stray": []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x01\x00\x05\x01\x01m\x00" + "\x00"),
		// The one send, unreceived, listed in full form: the encoder
		// writes the complement byte instead.
		"complement written in full": []byte(sim.DigestVersion + "\x04\x01\x00\x01" + step + "\x01\x00\x02\x01\x01m\x00" + "\x02\x02\x00"),
	} {
		if tr, err := Decode(bad); err == nil {
			t.Errorf("%s: decoded to %v", name, tr)
		} else if !strings.HasPrefix(err.Error(), "tracetest: ") {
			t.Errorf("%s: error %q does not say where it comes from", name, err)
		}
	}
}

// TestSamePartition checks the checker: equal partitions pass whatever
// the labels, a split or a merge of one class is reported.
func TestSamePartition(t *testing.T) {
	t.Parallel()
	text := map[string]string{"a": strings.Repeat("1", 64), "b": strings.Repeat("1", 64), "c": strings.Repeat("2", 64)}
	same := map[string]string{"a": strings.Repeat("x", 64), "b": strings.Repeat("x", 64), "c": strings.Repeat("y", 64)}
	if err := SamePartition(text, same); err != nil {
		t.Errorf("equal partitions: %v", err)
	}
	split := map[string]string{"a": strings.Repeat("x", 64), "b": strings.Repeat("z", 64), "c": strings.Repeat("y", 64)}
	merged := map[string]string{"a": strings.Repeat("x", 64), "b": strings.Repeat("x", 64), "c": strings.Repeat("x", 64)}
	missing := map[string]string{"a": strings.Repeat("x", 64), "b": strings.Repeat("x", 64)}
	for name, digest := range map[string]map[string]string{"split": split, "merged": merged, "missing": missing} {
		if err := SamePartition(text, digest); err == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

// FuzzDecode feeds the decoder arbitrary bytes. It must return an error
// or a trace that re-encodes to exactly the input — the decoder accepts
// only the encoder's image — and never panic or over-allocate.
func FuzzDecode(f *testing.F) {
	good := sample(f).AppendCanonical(nil)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add((&sim.Trace{}).AppendCanonical(nil))
	// A run of two sends and a run of one after a gap in the IDs: the
	// first received and the other two left as the complement; or none
	// received and two listed by position, the second first.
	sends := "\x00\x01\x01\x00\x01\x00\x03\x00\x02\x02\x01m\x02\x04\x01\x01n\x00"
	f.Add([]byte(sim.DigestVersion + "\x04\x01\x00\x02" + sends + "\x01\x02\x02\x00\x01\x02\x00\x00\x00" + "\x00"))
	f.Add([]byte(sim.DigestVersion + "\x04\x01\x00\x01" + sends + "\x03\x03\x00\x02\x00"))
	f.Add([]byte(sim.DigestVersion + "\x04\x01\x05\x00\x06\x00\x00\x00" + "\x02\x01\xac\x02\x04\x03\x00\x01\x00"))

	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Decode(b)
		if err != nil {
			return
		}
		if again := tr.AppendCanonical(nil); !bytes.Equal(again, b) {
			t.Fatalf("decoded input re-encodes differently:\n in  %x\n out %x", b, again)
		}
		if err := RoundTrip(tr); err != nil {
			t.Fatal(err)
		}
	})
}
