package sim

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// encodeReference is the original fmt-based trace rendering the
// append-based encoder replaced. The digest bytes are pinned by the
// golden-trace suite; this reference keeps the equivalence checkable
// on arbitrary traces, payload shapes included.
func encodeReference(tr *Trace, w io.Writer) {
	fmt.Fprintf(w, "n=%d stopped=%d pattern=%s\n", tr.N, tr.Stopped, tr.Pattern)
	for i := range tr.Events {
		ev := &tr.Events[i]
		fmt.Fprintf(w, "e%d p=%d t=%d fd=%s prev=%d", ev.Index, ev.P, ev.T, ev.FD, ev.PrevSameProc)
		if ev.Msg != nil {
			fmt.Fprintf(w, " rcv=(%d %d>%d @%d by%d %v)",
				ev.Msg.ID, ev.Msg.From, ev.Msg.To, ev.Msg.SentAt, ev.Msg.SentBy, ev.Msg.Payload)
		}
		for _, m := range ev.Sends {
			fmt.Fprintf(w, " snd=(%d >%d %v)", m.ID, m.To, m.Payload)
		}
		for _, pe := range ev.Events {
			fmt.Fprintf(w, " ev=(%d %d %v)", pe.Kind, pe.Instance, pe.Value)
		}
		fmt.Fprintln(w)
	}
	for _, m := range tr.Undelivered {
		fmt.Fprintf(w, "u=(%d %d>%d @%d %v)\n", m.ID, m.From, m.To, m.SentAt, m.Payload)
	}
}

// payloadAutomaton broadcasts a different payload shape per process:
// every branch of appendValue's type switch must render exactly as
// fmt's %v did.
type payloadAutomaton struct{}

type payloadProc struct {
	self model.ProcessID
	n    int
	sent bool
}

type structPayload struct {
	Round int
	Est   string
}

type stringerPayload struct{ tag string }

func (sp stringerPayload) String() string { return "tagged:" + sp.tag }

func (payloadAutomaton) Spawn(self model.ProcessID, n int) Process {
	return &payloadProc{self: self, n: n}
}

func (p *payloadProc) Step(in *Message, _ model.ProcessSet, t model.Time) Actions {
	var acts Actions
	if !p.sent {
		p.sent = true
		var payload any
		switch int(p.self) % 8 {
		case 0:
			payload = "plain string"
		case 1:
			payload = 42
		case 2:
			payload = int64(-7)
		case 3:
			payload = model.Time(900)
		case 4:
			payload = p.self // model.ProcessID, a Stringer
		case 5:
			payload = true
		case 6:
			payload = structPayload{Round: 3, Est: "v1"}
		default:
			payload = stringerPayload{tag: "x"}
		}
		acts.Sends = Broadcast(p.n, payload)
		acts.Events = []ProtocolEvent{{Kind: KindViewChange, Instance: int(t), Value: payload}}
	}
	return acts
}

// benchShape is the body of the repository benchmark's sim-sweep-n64
// workload: n=64, two scripted crashes, horizon 2000, the random fair
// policy, and noisyAutomaton — scenario.BusyAutomaton's twin in this
// package (scenario imports sim). Its rendering is ≈ 940 KB: dozens of
// block flushes, five-digit message IDs, prev=-1 on every first step.
func benchShape(seed int64) Config {
	return Config{
		N: 64, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
		Pattern: model.MustPattern(64).MustCrash(7, 300).MustCrash(21, 900),
		Horizon: 2000, Seed: seed, Policy: &RandomFairPolicy{},
	}
}

// requireSameBytes fails with the first diverging window.
func requireSameBytes(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("%s: encoder diverged from fmt reference at byte %d (ref %d bytes, new %d):\nref: ...%q\nnew: ...%q",
		what, i, len(want), len(got), want[lo:min(i+40, len(want))], got[lo:min(i+40, len(got))])
}

// TestEncodeMatchesReference holds the append-based, block-buffered
// digest encoder to the fmt-based rendering byte for byte, on traces
// that exercise every payload fast path plus the fmt fallback, under
// loss (undelivered buffer) and crashes, and at the benchmark's own
// size, where the buffer is flushed many times and a lossy run leaves
// a long Undelivered tail.
func TestEncodeMatchesReference(t *testing.T) {
	t.Parallel()
	for name, cfg := range map[string]Config{
		"payload shapes, lossy n=8": {
			N: 8, Automaton: payloadAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(8).MustCrash(3, 20),
			Horizon: 300, Seed: 5,
			Policy: &FaultyPolicy{Inner: &RandomFairPolicy{}, Faults: LinkFaults{DropPct: 30}},
		},
		"noisy n=6": {
			N: 6, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
			Horizon: 400, Seed: 9, Policy: &RandomFairPolicy{},
		},
		"benchmark shape n=64": benchShape(1_000_000),
		"lossy n=64": {
			N: 64, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(64).MustCrash(7, 300),
			Horizon: 1500, Seed: 11,
			Policy: &FaultyPolicy{Inner: &RandomFairPolicy{}, Faults: LinkFaults{DropPct: 35}},
		},
	} {
		tr, err := Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.N == 64 && len(tr.Undelivered) < 1000 {
			t.Fatalf("%s: only %d undelivered messages; the case is meant to have a long tail", name, len(tr.Undelivered))
		}
		var want, got bytes.Buffer
		encodeReference(tr, &want)
		tr.encode(&got)
		requireSameBytes(t, name, want.Bytes(), got.Bytes())
	}
}

// countingWriter records how the encoder cut its output into writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.writes++
	return cw.Buffer.Write(p)
}

// TestEncodeWritesBlocks pins the block contract: the bytes are the
// reference rendering, and they reach the hash in at most
// ⌈bytes/digestBlock⌉+1 writes — not one per event and per undelivered
// message, which was most of a digest's cost. A second pass over the
// same trace starts from the retained, dirty scratch buffer and must
// render the same bytes; a short trace must not grow it to a block.
func TestEncodeWritesBlocks(t *testing.T) {
	t.Parallel()
	tr, err := Execute(benchShape(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	encodeReference(tr, &want)
	if want.Len() < 50*digestBlock {
		t.Fatalf("rendering is %d bytes; the benchmark shape is meant to span dozens of blocks", want.Len())
	}
	lines := len(tr.Events) + len(tr.Undelivered) + 1
	for pass := 0; pass < 2; pass++ {
		var cw countingWriter
		tr.encode(&cw)
		requireSameBytes(t, "counted pass", want.Bytes(), cw.Bytes())
		if limit := (cw.Len()+digestBlock-1)/digestBlock + 1; cw.writes > limit {
			t.Fatalf("pass %d: %d bytes (%d lines) reached the writer in %d writes, want ≤ %d",
				pass, cw.Len(), lines, cw.writes, limit)
		}
	}

	short, err := Execute(Config{
		N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{}, Horizon: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cw countingWriter
	short.encode(&cw)
	if cw.writes != 1 || cap(short.scratch) >= digestBlock {
		t.Fatalf("short trace: %d bytes in %d writes with a %d-byte buffer; want one write and less than a block",
			cw.Len(), cw.writes, cap(short.scratch))
	}
}

// FuzzEncodeMatchesReference holds the encoder to the fmt reference
// over system size, horizon, seed and loss rate: block boundaries land
// on every kind of line, number widths cross every digit count, and
// the two automata alternate string and mixed-type payloads.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint16(300), int64(5), uint8(30))
	f.Add(uint8(60), uint16(1999), int64(1_000_000), uint8(0))
	f.Add(uint8(60), uint16(1200), int64(12), uint8(35))
	f.Add(uint8(12), uint16(0), int64(-3), uint8(99))
	f.Add(uint8(28), uint16(700), int64(77), uint8(10))

	f.Fuzz(func(t *testing.T, nRaw uint8, horizonRaw uint16, seed int64, dropRaw uint8) {
		n := 4 + int(nRaw%61)                      // 4..64
		horizon := model.Time(1 + horizonRaw%2000) // 1..2000
		var auto Automaton = noisyAutomaton{}
		if seed&1 == 1 {
			auto = payloadAutomaton{}
		}
		var policy Policy = &RandomFairPolicy{}
		if drop := int(dropRaw % 60); drop > 0 {
			policy = &FaultyPolicy{Inner: policy, Faults: LinkFaults{DropPct: drop}}
		}
		victim := model.ProcessID(1 + uint64(seed)%uint64(n))
		tr, err := Execute(Config{
			N: n, Automaton: auto, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(n).MustCrash(victim, 1+horizon/3),
			Horizon: horizon, Seed: seed, Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		encodeReference(tr, &want)
		tr.encode(&got)
		requireSameBytes(t, "fuzzed trace", want.Bytes(), got.Bytes())
	})
}
