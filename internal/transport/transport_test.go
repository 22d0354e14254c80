package transport

import (
	"testing"
	"time"

	"realisticfd/internal/model"
)

func recvWithin(t *testing.T, tr Transport, d time.Duration) (Envelope, bool) {
	t.Helper()
	select {
	case env, ok := <-tr.Recv():
		return env, ok
	case <-time.After(d):
		return Envelope{}, false
	}
}

func TestEnvelopeBodyRoundTrip(t *testing.T) {
	t.Parallel()
	type payload struct {
		Seq  int    `json:"seq"`
		Note string `json:"note"`
	}
	var env Envelope
	if err := env.Marshal(payload{Seq: 7, Note: "hi"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := env.Unmarshal(&got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Note != "hi" {
		t.Fatalf("round trip = %+v", got)
	}

	// A []byte is the body itself, not a JSON rendering of it.
	raw := []byte{2, 0xff, 0, '"'}
	if err := env.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if &env.Body[0] != &raw[0] || len(env.Body) != len(raw) {
		t.Fatalf("Marshal([]byte) set body %v, want the slice itself", env.Body)
	}
	var back []byte
	if err := env.Unmarshal(&back); err != nil {
		t.Fatal(err)
	}
	if &back[0] != &raw[0] || len(back) != len(raw) {
		t.Fatalf("Unmarshal(*[]byte) gave %v, want the body itself", back)
	}
}

func TestChanNetworkDelivery(t *testing.T) {
	t.Parallel()
	net, err := NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()

	n1, n2 := net.Node(1), net.Node(2)
	if err := n1.Send(Envelope{To: 2, Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	env, ok := recvWithin(t, n2, time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if env.From != 1 || env.To != 2 || env.Type != "ping" {
		t.Fatalf("got %+v", env)
	}
}

func TestChanNetworkPartitionAndHeal(t *testing.T) {
	t.Parallel()
	net, err := NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()

	net.Partition(1, 2)
	if err := net.Node(1).Send(Envelope{To: 2, Type: "lost"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, net.Node(2), 50*time.Millisecond); ok {
		t.Fatal("partitioned message delivered")
	}
	net.Heal(1, 2)
	if err := net.Node(1).Send(Envelope{To: 2, Type: "back"}); err != nil {
		t.Fatal(err)
	}
	if env, ok := recvWithin(t, net.Node(2), time.Second); !ok || env.Type != "back" {
		t.Fatalf("post-heal delivery failed: %+v ok=%v", env, ok)
	}
}

func TestChanNetworkIsolate(t *testing.T) {
	t.Parallel()
	net, err := NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	net.Isolate(3)
	for q := model.ProcessID(1); q <= 4; q++ {
		if q == 3 {
			continue
		}
		if err := net.Node(3).Send(Envelope{To: q, Type: "x"}); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvWithin(t, net.Node(q), 30*time.Millisecond); ok {
			t.Fatalf("isolated node reached %v", q)
		}
	}
}

func TestChanNetworkSendAfterClose(t *testing.T) {
	t.Parallel()
	net, err := NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := net.Node(1).Send(Envelope{To: 2}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Recv channel is closed.
	if _, ok := <-net.Node(2).Recv(); ok {
		t.Fatal("recv channel not closed")
	}
	// Double close is fine.
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPClusterRoundTrip(t *testing.T) {
	t.Parallel()
	nodes, err := NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseTCPCluster(nodes)

	env := Envelope{To: 3, Type: "hb"}
	if err := env.Marshal(map[string]int{"seq": 1}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Send(env); err != nil {
		t.Fatal(err)
	}
	got, ok := recvWithin(t, nodes[2], 2*time.Second)
	if !ok {
		t.Fatal("no TCP delivery")
	}
	if got.From != 1 || got.Type != "hb" {
		t.Fatalf("got %+v", got)
	}
	var body map[string]int
	if err := got.Unmarshal(&body); err != nil {
		t.Fatal(err)
	}
	if body["seq"] != 1 {
		t.Fatalf("body = %v", body)
	}
}

func TestTCPManyMessagesBothDirections(t *testing.T) {
	t.Parallel()
	nodes, err := NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseTCPCluster(nodes)

	const msgs = 50
	for i := 0; i < msgs; i++ {
		if err := nodes[0].Send(Envelope{To: 2, Type: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Send(Envelope{To: 1, Type: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if _, ok := recvWithin(t, nodes[1], 2*time.Second); !ok {
			t.Fatalf("n2 missing message %d", i)
		}
		if _, ok := recvWithin(t, nodes[0], 2*time.Second); !ok {
			t.Fatalf("n1 missing message %d", i)
		}
	}
}

func TestTCPSendToDeadPeerIsSilentLoss(t *testing.T) {
	t.Parallel()
	nodes, err := NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseTCPCluster(nodes)

	// Kill node 4, then send to it: crash-stop peers look like loss.
	if err := nodes[3].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Send(Envelope{To: 4, Type: "x"}); err != nil {
		t.Fatalf("send to dead peer should be silent, got %v", err)
	}
	if st := nodes[0].Stats(); st.LinkDrops != 1 {
		t.Fatalf("frame to an undialable peer counted as %+v, want 1 link drop", st)
	}

	// Kill node 3 under an established link: the writes that follow
	// fail sooner or later, and each failure is one counted loss.
	if err := nodes[0].Send(Envelope{To: 3, Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, nodes[2], 2*time.Second); !ok {
		t.Fatal("no delivery on the live link")
	}
	if err := nodes[2].Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); nodes[0].Stats().LinkDrops < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("frames to a killed peer never counted: %+v", nodes[0].Stats())
		}
		if err := nodes[0].Send(Envelope{To: 3, Type: "x"}); err != nil {
			t.Fatalf("send to killed peer should be silent, got %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPInboxFullIsCounted floods a node nobody reads from: what does
// not fit its receive queue is dropped, and every drop is counted.
func TestTCPInboxFullIsCounted(t *testing.T) {
	t.Parallel()
	nodes, err := NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseTCPCluster(nodes)
	const extra = 40
	sent := cap(nodes[1].in) + extra
	for i := 0; i < sent; i++ {
		if err := nodes[0].Send(Envelope{To: 2, Type: "x", Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); nodes[1].Stats().InboxDrops < extra; {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames into a queue of %d counted as %+v, want %d inbox drops", sent, cap(nodes[1].in), nodes[1].Stats(), extra)
		}
		time.Sleep(time.Millisecond)
	}
	if st := nodes[1].Stats(); st.InboxDrops != extra || len(nodes[1].in) != cap(nodes[1].in) {
		t.Fatalf("stats %+v with %d queued, want exactly %d drops and a full queue", st, len(nodes[1].in), extra)
	}
	if st := nodes[0].Stats(); st != (TCPStats{}) {
		t.Fatalf("the sender lost nothing, yet counts %+v", st)
	}
}

func TestTCPSendUnregisteredPeer(t *testing.T) {
	t.Parallel()
	nd, err := NewTCPNode(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nd.Close() }()
	if err := nd.Send(Envelope{To: 9}); err == nil {
		t.Fatal("send to unregistered peer succeeded")
	}
}
