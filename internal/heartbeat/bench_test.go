package heartbeat

import (
	"testing"
	"time"

	"realisticfd/internal/transport"
)

func feed(est Estimator, n int) time.Time {
	t := time.Unix(0, 0)
	for i := 0; i < n; i++ {
		t = t.Add(20 * time.Millisecond)
		est.Observe(t)
	}
	return t
}

func BenchmarkPhiCalculation(b *testing.B) {
	b.ReportAllocs()
	p := &PhiAccrual{Window: 128, Threshold: 8, MinStdDev: time.Millisecond}
	last := feed(p, 256)
	q := last.Add(35 * time.Millisecond)
	for i := 0; i < b.N; i++ {
		_ = p.Phi(q)
	}
}

func BenchmarkChenSuspect(b *testing.B) {
	b.ReportAllocs()
	c := &Chen{Window: 32, Alpha: 30 * time.Millisecond}
	last := feed(c, 64)
	q := last.Add(35 * time.Millisecond)
	for i := 0; i < b.N; i++ {
		_ = c.Suspect(q)
	}
}

func BenchmarkFixedSuspect(b *testing.B) {
	b.ReportAllocs()
	f := &FixedTimeout{Timeout: 50 * time.Millisecond}
	last := feed(f, 4)
	q := last.Add(35 * time.Millisecond)
	for i := 0; i < b.N; i++ {
		_ = f.Suspect(q)
	}
}

func BenchmarkObserve(b *testing.B) {
	b.ReportAllocs()
	p := &PhiAccrual{Window: 128}
	t := time.Unix(0, 0)
	for i := 0; i < b.N; i++ {
		t = t.Add(20 * time.Millisecond)
		p.Observe(t)
	}
}

// The codec benchmarks use the frame a steady n=256 cluster gossips
// (lags in the nibbles, two dead nodes escaped).

func BenchmarkPiggybackEncode(b *testing.B) {
	b.ReportAllocs()
	pb := steadyFrame(256, 3000, 40, 170)
	for i := 0; i < b.N; i++ {
		if _, err := pb.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseFrame(b *testing.B) {
	b.ReportAllocs()
	data, err := steadyFrame(256, 3000, 40, 170).Encode()
	if err != nil {
		b.Fatal(err)
	}
	var escapes []uint64
	for i := 0; i < b.N; i++ {
		f, err := parseFrame(data, 256, escapes)
		if err != nil {
			b.Fatal(err)
		}
		escapes = f.escapes
	}
}

// BenchmarkGossipReceive is the receive path's ledger line: one steady
// frame into a gossiper that already knows its counters — parse, merge
// and the two accusations — per iteration. It allocates nothing.
func BenchmarkGossipReceive(b *testing.B) {
	const n = 256
	g := startGossiper(b, newSinkTransport(2), GossipConfig{Self: 2, N: n, Peers: []int{1}})
	body, err := steadyFrame(n, 3000, 40, 170).Encode()
	if err != nil {
		b.Fatal(err)
	}
	env := transport.Envelope{From: 1, To: 2, Type: GossipEnvelopeType, Body: body}
	g.receive(env)
	if st := g.Stats(); st.BadFrames != 0 || g.Counter(n) != 3000-(n-1)%9 {
		b.Fatalf("the frame was not taken: %+v, counter %d", st, g.Counter(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.receive(env)
	}
}
