package transport

import (
	"sync"

	"realisticfd/internal/model"
)

// ChanNetwork is an in-process network of n nodes with dynamic
// partitions: the substrate for heartbeat and membership tests.
// Delivery is immediate; loss and delay are the FaultHook's, on the
// TCP transport.
type ChanNetwork struct {
	n int

	mu      sync.Mutex
	closed  bool
	blocked map[[2]model.ProcessID]bool

	nodes []*chanNode
}

// NewChanNetwork builds an n-node in-process network.
func NewChanNetwork(n int) (*ChanNetwork, error) {
	if err := model.ValidateN(n); err != nil {
		return nil, err
	}
	c := &ChanNetwork{
		n:       n,
		blocked: map[[2]model.ProcessID]bool{},
	}
	c.nodes = make([]*chanNode, n+1)
	for p := 1; p <= n; p++ {
		c.nodes[p] = &chanNode{
			net:  c,
			self: model.ProcessID(p),
			in:   make(chan Envelope, 256),
		}
	}
	return c, nil
}

// Node returns the transport endpoint of process p.
func (c *ChanNetwork) Node(p model.ProcessID) Transport {
	if p < 1 || int(p) > c.n {
		panic("transport: node out of range")
	}
	return c.nodes[p]
}

// Partition blocks traffic in both directions between a and b.
func (c *ChanNetwork) Partition(a, b model.ProcessID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocked[[2]model.ProcessID{a, b}] = true
	c.blocked[[2]model.ProcessID{b, a}] = true
}

// Heal removes the partition between a and b.
func (c *ChanNetwork) Heal(a, b model.ProcessID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.blocked, [2]model.ProcessID{a, b})
	delete(c.blocked, [2]model.ProcessID{b, a})
}

// Isolate partitions p from every other node — the transport-level
// equivalent of a crash, as seen by everyone else.
func (c *ChanNetwork) Isolate(p model.ProcessID) {
	for q := 1; q <= c.n; q++ {
		if model.ProcessID(q) != p {
			c.Partition(p, model.ProcessID(q))
		}
	}
}

// Close shuts the network down: further sends fail and node channels
// close.
func (c *ChanNetwork) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for p := 1; p <= c.n; p++ {
		close(c.nodes[p].in)
	}
	return nil
}

// send is the hub: applies the partition, then delivers. It holds the
// lock across the non-blocking channel send, so Close cannot close the
// channel under it.
func (c *ChanNetwork) send(env Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || env.To < 1 || int(env.To) > c.n {
		return ErrClosed
	}
	if c.blocked[[2]model.ProcessID{env.From, env.To}] {
		return nil // silently dropped, like a real partition
	}
	select {
	case c.nodes[env.To].in <- env:
	default:
		// Receiver queue full: drop, as a kernel socket buffer would.
	}
	return nil
}

// chanNode is one endpoint of a ChanNetwork.
type chanNode struct {
	net  *ChanNetwork
	self model.ProcessID
	in   chan Envelope
}

var _ Transport = (*chanNode)(nil)

// Self implements Transport.
func (nd *chanNode) Self() model.ProcessID { return nd.self }

// Send implements Transport.
func (nd *chanNode) Send(env Envelope) error {
	env.From = nd.self
	return nd.net.send(env)
}

// Recv implements Transport.
func (nd *chanNode) Recv() <-chan Envelope { return nd.in }

// Close implements Transport; closing one node closes the network.
func (nd *chanNode) Close() error { return nd.net.Close() }
