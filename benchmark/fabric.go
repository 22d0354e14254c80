package main

import (
	"sync"
	"sync/atomic"
	"time"

	"realisticfd/internal/model"
	"realisticfd/internal/transport"
)

// fabricInbox is each endpoint's queue depth, the depth of TCPNode's
// inbox. A gossip-mesh-n256 node takes 15 frames a round, so this is
// some seventeen rounds of backlog: a receiver kept off the CPU for
// over a second still loses nothing, and a frame that does not fit is
// counted, never waited for.
const fabricInbox = 256

// fabric is the benchmark's in-memory network: n endpoints that
// implement transport.Transport, deliver by channel, never block a
// sender, and count what they are handed.
type fabric struct {
	ends []*endpoint // index id-1

	frames, bodyBytes, dropped atomic.Int64

	// watch, when non-zero, is the sender whose Send instants are kept
	// (traced runs only) so the spread of one round's sends can be read.
	watch     model.ProcessID
	watchMu   sync.Mutex
	watchSend []time.Time
}

// newFabric builds n endpoints; watch is the sender to keep Send
// instants for, or 0.
func newFabric(n, watch int) *fabric {
	f := &fabric{ends: make([]*endpoint, n), watch: model.ProcessID(watch)}
	for i := range f.ends {
		f.ends[i] = &endpoint{f: f, self: model.ProcessID(i + 1), in: make(chan transport.Envelope, fabricInbox)}
	}
	return f
}

// node returns the endpoint of process id.
func (f *fabric) node(id int) *endpoint { return f.ends[id-1] }

// quiet reports whether at least frames frames have been handed over
// and every queue has been emptied by its receiver.
func (f *fabric) quiet(frames int64) bool {
	if f.frames.Load() < frames {
		return false
	}
	for _, e := range f.ends {
		if len(e.in) > 0 {
			return false
		}
	}
	return true
}

// watched returns a copy of the watched sender's Send instants so far.
func (f *fabric) watched() []time.Time {
	f.watchMu.Lock()
	defer f.watchMu.Unlock()
	return append([]time.Time(nil), f.watchSend...)
}

// endpoint is one node's transport.Transport on the fabric.
type endpoint struct {
	f    *fabric
	self model.ProcessID
	in   chan transport.Envelope

	// mu orders sends into in against its close: senders share the
	// read side, Close takes the write side.
	mu     sync.RWMutex
	closed bool
}

var _ transport.Transport = (*endpoint)(nil)

func (e *endpoint) Self() model.ProcessID { return e.self }

func (e *endpoint) Recv() <-chan transport.Envelope { return e.in }

// Send counts the frame and its body and hands it to the destination's
// queue. A frame to a closed or unknown endpoint is lost silently, as
// on a network; a frame that finds the queue full is lost and counted
// as a drop, which the workload treats as a failed operation.
func (e *endpoint) Send(env transport.Envelope) error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return transport.ErrClosed
	}
	env.From = e.self
	f := e.f
	f.frames.Add(1)
	f.bodyBytes.Add(int64(len(env.Body)))
	if f.watch == e.self {
		now := time.Now()
		f.watchMu.Lock()
		f.watchSend = append(f.watchSend, now)
		f.watchMu.Unlock()
	}
	to := int(env.To)
	if to < 1 || to > len(f.ends) {
		return nil
	}
	dst := f.ends[to-1]
	dst.mu.RLock()
	defer dst.mu.RUnlock()
	if dst.closed {
		return nil
	}
	select {
	case dst.in <- env:
	default:
		f.dropped.Add(1)
	}
	return nil
}

// Close closes the receive channel, which unblocks Recv; it is safe to
// call twice.
func (e *endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.in)
	}
	return nil
}
