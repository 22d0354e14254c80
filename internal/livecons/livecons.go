// Package livecons runs the S-based flooding consensus — the exact
// automaton the simulator verifies — over a live transport, with a
// heartbeat failure detector supplying the suspicion module. It is
// the end-to-end realization of the paper's practical claim: a
// timeout-based emulation of P is what lets a real cluster reach
// agreement no matter how many members crash.
//
// The step discipline mirrors §2.3: every inbound message and every
// tick drives one atomic Step(msg|λ, suspicions); the automaton is
// single-threaded inside the node loop, so the simulator's
// correctness argument carries over verbatim — only the message
// delivery and failure detection are real.
package livecons

import (
	"fmt"
	"sync"
	"time"

	"realisticfd/internal/consensus"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
	"realisticfd/internal/transport"
)

// EnvelopeType tags consensus traffic on a shared transport.
const EnvelopeType = "consensus"

// SuspicionSource supplies the failure-detector module's current
// output, e.g. (*heartbeat.Detector).Suspects.
type SuspicionSource func() model.ProcessSet

// Config assembles a live consensus node.
type Config struct {
	// Transport sends envelopes; the node addresses all n processes.
	Transport transport.Transport
	// N is the system size.
	N int
	// Proposal is this node's initial value.
	Proposal consensus.Value
	// Suspects is the failure-detector module.
	Suspects SuspicionSource
	// Envelopes yields inbound consensus-typed envelopes (from a
	// transport.Demux or a heartbeat.Detector Forward stream).
	Envelopes <-chan transport.Envelope
	// Tick paces λ-steps so suspicion-driven guards re-evaluate even
	// in silence. Default 10ms.
	Tick time.Duration
}

// Node is one live consensus participant.
type Node struct {
	cfg  Config
	proc sim.Process

	decided chan consensus.Value

	stop chan struct{}
	done chan struct{}
	once sync.Once

	mu       sync.Mutex
	decision *consensus.Value

	// sent caches every envelope this node emitted; the simulator's
	// model assumes reliable channels (§2.4 condition 5), so over a
	// real link the node periodically retransmits. Re-delivery is
	// safe: the flooding automaton's absorb step is idempotent.
	sent       []transport.Envelope
	ticksSince int
}

// resendEvery is the retransmission period in ticks.
const resendEvery = 16

// NewNode starts the node's protocol loop immediately.
func NewNode(cfg Config) (*Node, error) {
	if err := model.ValidateN(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	self := cfg.Transport.Self()
	nd := &Node{
		cfg: cfg,
		proc: consensus.SFlooding{
			Proposals: consensus.Proposals{self: cfg.Proposal},
		}.Spawn(self, cfg.N),
		decided: make(chan consensus.Value, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go nd.run()
	return nd, nil
}

// Decided yields the decision (once). The channel is buffered: the
// node does not block on slow readers.
func (nd *Node) Decided() <-chan consensus.Value { return nd.decided }

// Decision returns the decision if one was reached.
func (nd *Node) Decision() (consensus.Value, bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.decision == nil {
		return consensus.NoValue, false
	}
	return *nd.decision, true
}

// Close stops the protocol loop and waits for it.
func (nd *Node) Close() {
	nd.once.Do(func() { close(nd.stop) })
	<-nd.done
}

func (nd *Node) run() {
	defer close(nd.done)
	ticker := time.NewTicker(nd.cfg.Tick)
	defer ticker.Stop()

	step := model.Time(0)
	// λ kick: emit the round-1 broadcast before any traffic arrives.
	nd.step(nil, &step)
	for {
		select {
		case <-nd.stop:
			return
		case env, ok := <-nd.cfg.Envelopes:
			if !ok {
				return
			}
			payload, err := consensus.DecodeWire(env.Body)
			if err != nil {
				continue // corrupt frame: drop like a bad packet
			}
			nd.step(&sim.Message{From: env.From, Payload: payload}, &step)
		case <-ticker.C:
			nd.step(nil, &step)
			nd.ticksSince++
			if nd.ticksSince >= resendEvery {
				nd.ticksSince = 0
				nd.retransmit()
			}
		}
	}
}

// retransmit re-sends everything once more (reliable-channel
// emulation). It keeps going even after this node decided: laggards
// may still be missing one of our frames, and §2.4 condition (5)
// obliges delivery to every correct process. The cache stops growing
// at decision time, so the cost is bounded.
func (nd *Node) retransmit() {
	for _, env := range nd.sent {
		_ = nd.cfg.Transport.Send(env)
	}
}

// step drives one atomic automaton step and performs its actions.
func (nd *Node) step(in *sim.Message, step *model.Time) {
	*step++
	acts := nd.proc.Step(in, nd.cfg.Suspects(), *step)
	for _, s := range acts.Sends {
		body, err := consensus.EncodeWire(s.Payload)
		if err != nil {
			// The automaton is ours, so a payload the codec misses is a
			// bug, not a network condition: it must not send nothing.
			panic(fmt.Sprintf("livecons: %T payload is not wire-encodable: %v", s.Payload, err))
		}
		env := transport.Envelope{To: s.To, Type: EnvelopeType, Body: body}
		nd.sent = append(nd.sent, env)
		_ = nd.cfg.Transport.Send(env) // losses look like slow links
	}
	for _, ev := range acts.Events {
		if ev.Kind != sim.KindDecide {
			continue
		}
		v, okVal := ev.Value.(consensus.Value)
		if !okVal {
			continue
		}
		nd.mu.Lock()
		first := nd.decision == nil
		if first {
			val := v
			nd.decision = &val
		}
		nd.mu.Unlock()
		if first {
			nd.decided <- v
		}
	}
}
