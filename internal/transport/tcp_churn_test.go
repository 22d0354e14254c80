package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"realisticfd/internal/model"
)

// TestTCPCloseUnderFire pins the graceful-close contract the live
// cluster depends on: Close must terminate cleanly — no panic, no
// leaked readLoop, no send on a closed channel — while other
// goroutines are mid-Send, under the race detector. This is the churn
// the orchestrator produces when it SIGKILLs nodes whose peers are
// still heartbeating them.
func TestTCPCloseUnderFire(t *testing.T) {
	const cycles = 8
	for cycle := 0; cycle < cycles; cycle++ {
		nodes, err := NewTCPCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for _, nd := range nodes {
			for _, peer := range nodes {
				if peer == nd {
					continue
				}
				wg.Add(1)
				go func(nd *TCPNode, to model.ProcessID) {
					defer wg.Done()
					env := Envelope{To: to, Type: "churn"}
					_ = env.Marshal("payload")
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := nd.Send(env); err != nil && err != ErrClosed {
							// Unregistered-peer errors are impossible
							// here; anything else is a bug.
							t.Errorf("send: %v", err)
							return
						}
					}
				}(nd, peer.Self())
			}
		}
		// Let traffic flow, then slam everything shut while sends are
		// in flight. Half the cycles close in reverse order so both
		// directions of a connection see the close first.
		time.Sleep(10 * time.Millisecond)
		if cycle%2 == 0 {
			for _, nd := range nodes {
				_ = nd.Close()
			}
		} else {
			for i := len(nodes) - 1; i >= 0; i-- {
				_ = nodes[i].Close()
			}
		}
		close(stop)
		wg.Wait()

		// Sends after close must report ErrClosed, never panic.
		env := Envelope{To: 2, Type: "late"}
		if err := nodes[0].Send(env); err != ErrClosed {
			t.Fatalf("send after close: got %v, want ErrClosed", err)
		}
		// The receive channel must be closed (drained) for every node.
		for _, nd := range nodes {
			deadline := time.After(2 * time.Second)
			for {
				select {
				case _, ok := <-nd.Recv():
					if !ok {
						goto next
					}
				case <-deadline:
					t.Fatalf("recv channel of %v not closed after Close", nd.Self())
				}
			}
		next:
		}
	}
}

// TestTCPStartKillCloseChurn cycles node lifecycles concurrently:
// nodes come up, exchange traffic, and die in arbitrary order while
// their peers keep sending. Any send-after-close panic, readLoop leak
// or frame corruption surfaces here under -race.
func TestTCPStartKillCloseChurn(t *testing.T) {
	const rounds = 6
	for round := 0; round < rounds; round++ {
		a, err := NewTCPNode(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCPNode(2)
		if err != nil {
			t.Fatal(err)
		}
		a.SetPeer(2, b.Addr())
		b.SetPeer(1, a.Addr())

		var senders sync.WaitGroup
		// Multiple goroutines share the a→b link: the per-link write
		// lock must keep frames intact.
		const writers = 4
		const perWriter = 50
		for w := 0; w < writers; w++ {
			senders.Add(1)
			go func(w int) {
				defer senders.Done()
				for i := 0; i < perWriter; i++ {
					env := Envelope{To: 2, Type: "data"}
					_ = env.Marshal(fmt.Sprintf("w%d-%d", w, i))
					_ = a.Send(env)
				}
			}(w)
		}
		// Concurrently, b dies mid-stream on odd rounds.
		if round%2 == 1 {
			go func() {
				time.Sleep(time.Millisecond)
				_ = b.Close()
			}()
		}

		received := 0
		timeout := time.After(5 * time.Second)
	drain:
		for {
			select {
			case env, ok := <-b.Recv():
				if !ok {
					break drain
				}
				// Every frame that arrives must decode to a sane body:
				// interleaved writes would corrupt the JSON.
				var body string
				if err := env.Unmarshal(&body); err != nil {
					t.Fatalf("corrupt frame: %v", err)
				}
				received++
				if received == writers*perWriter {
					break drain
				}
			case <-timeout:
				t.Fatal("drain timed out")
			}
		}
		senders.Wait()
		_ = a.Close()
		_ = b.Close()
		if round%2 == 0 && received != writers*perWriter {
			t.Fatalf("round %d: received %d of %d frames with no failure injected",
				round, received, writers*perWriter)
		}
	}
}

// TestTCPSetCut pins the socket-level partition semantics: a cut peer
// loses both directions, and healing restores them.
func TestTCPSetCut(t *testing.T) {
	a, err := NewTCPNode(1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())

	send := func(from *TCPNode, to model.ProcessID, body string) {
		env := Envelope{To: to, Type: "t"}
		if err := env.Marshal(body); err != nil {
			t.Fatal(err)
		}
		if err := from.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	recvBody := func(from *TCPNode, want string) {
		select {
		case env := <-from.Recv():
			var got string
			_ = env.Unmarshal(&got)
			if got != want {
				t.Fatalf("got %q want %q", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}

	send(a, 2, "before")
	recvBody(b, "before")

	// Outbound cut at a: the frame never leaves.
	a.SetCut(2, true)
	send(a, 2, "cut-out")
	// Inbound cut at b: even a frame that does arrive is discarded.
	b.SetCut(1, true)
	select {
	case env := <-b.Recv():
		t.Fatalf("partitioned frame delivered: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}

	a.SetCut(2, false)
	b.SetCut(1, false)
	send(a, 2, "healed")
	recvBody(b, "healed")
}
