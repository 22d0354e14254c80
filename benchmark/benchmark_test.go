package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"realisticfd/internal/transport"
)

func TestFabricDeliversAndCounts(t *testing.T) {
	f := newFabric(3, 0)
	a, b := f.node(1), f.node(2)
	env := transport.Envelope{To: 2, Type: "gossip", Body: json.RawMessage(`"abcd"`)}
	for i := 0; i < 5; i++ {
		if err := a.Send(env); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case got := <-b.Recv():
			if got.From != 1 || got.To != 2 || string(got.Body) != `"abcd"` {
				t.Fatalf("frame %d arrived as %+v", i, got)
			}
		case <-time.After(time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	if frames, bytes := f.frames.Load(), f.bodyBytes.Load(); frames != 5 || bytes != 5*6 {
		t.Errorf("counted %d frames, %d body bytes; want 5, 30", frames, bytes)
	}
	if d := f.dropped.Load(); d != 0 {
		t.Errorf("dropped %d frames on an empty queue", d)
	}
}

func TestFabricNeverBlocksAndCountsDrops(t *testing.T) {
	f := newFabric(2, 0)
	env := transport.Envelope{To: 2, Type: "gossip"}
	for i := 0; i < fabricInbox+7; i++ {
		if err := f.node(1).Send(env); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if d := f.dropped.Load(); d != 7 {
		t.Errorf("dropped %d frames past a full queue, want 7", d)
	}
}

func TestFabricCloseUnblocksRecv(t *testing.T) {
	f := newFabric(2, 0)
	b := f.node(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range b.Recv() {
		}
	}()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Recv still blocked after Close")
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := b.Send(transport.Envelope{To: 1}); err != transport.ErrClosed {
		t.Errorf("send on a closed endpoint: %v, want ErrClosed", err)
	}
	if err := f.node(1).Send(transport.Envelope{To: 2}); err != nil {
		t.Errorf("send to a closed endpoint: %v, want silent loss", err)
	}
}

func TestQuantile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := quantile(ten, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// 154 samples is the smallest detection sample of the three live
	// workloads; p90 must leave at least ten beyond it.
	big := make([]float64, 154)
	for i := range big {
		big[i] = float64(i)
	}
	if p90 := quantile(big, 0.9); 153-p90 < 10 {
		t.Errorf("p90 of 154 samples is %v: fewer than ten samples beyond it", p90)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

// The reference kernel must do the same work on every tick and leave
// the heap alone, or it would show in the allocation metrics it runs
// beside.
func TestRefClockTick(t *testing.T) {
	c := newRefClock()
	first := string(c.sum)
	if allocs := testing.AllocsPerRun(1, func() { c.tick() }); allocs != 0 {
		t.Errorf("a tick allocates %v times", allocs)
	}
	if string(c.sum) != first || len(first) == 0 {
		t.Errorf("two ticks hashed to %x and %x", first, c.sum)
	}
}

func TestRefLap(t *testing.T) {
	nominal := refNominal.Seconds()
	// Laps twice as long beside ticks twice as long are the same pace.
	p := &refPacer{laps: []float64{1, 2, 1}, ticks: []float64{nominal, nominal, 3 * nominal, nominal}}
	if got := p.refLap(1); got != 1 {
		t.Errorf("refLap(1) = %v, want 1 (laps scale to 1, 1, 0.5)", got)
	}
	// One group of three laps, 4 s in all, against the median tick.
	if got := p.refLap(3); got != 4 {
		t.Errorf("refLap(3) = %v, want 4", got)
	}
	if got := p.worked(); got != 4 {
		t.Errorf("worked = %v, want 4", got)
	}
}

func TestBursts(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	got := bursts([]time.Time{at(0), at(10), at(30), at(100_000), at(100_040)}, 50*time.Millisecond)
	if len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Errorf("bursts = %v, want [30 40]", got)
	}
}

// TestDeclaredMetrics holds BENCHMARK.json to the lists this package
// prints from: same names, units, directions and bounds.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default -seconds is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d declared as %q, runs as %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, declared []decl, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d printed", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got := declared[i]; got != (decl{d.name, d.unit, better, d.bound}) {
				t.Errorf("%s[%d]: declared %+v, printed as %+v", kind, i, got, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
