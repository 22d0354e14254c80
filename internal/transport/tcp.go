package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"realisticfd/internal/model"
)

// TCPNode is a Transport over real TCP sockets on localhost: each node
// listens on its own port and dials peers on demand; each envelope
// travels as one length-prefixed binary frame (see appendFrame) whose
// body is the envelope's bytes, untouched. This is the "heartbeats
// over sockets" substrate of the live cluster (internal/cluster) and
// its experiment, E10.
//
// Writes to one peer are serialized through a per-peer link lock, so
// concurrent senders (heartbeat emitter, membership, control traffic)
// cannot interleave frame bytes on a shared connection. Every open
// connection is also registered in a flat set guarded by the node
// lock, so Close can sever a connection whose writer is wedged on a
// full socket buffer (a SIGSTOPped peer) without waiting for the
// writer — the close fails the write, the writer unwinds, nothing
// hangs.
type TCPNode struct {
	self model.ProcessID
	ln   net.Listener
	in   chan Envelope

	mu     sync.Mutex
	peers  map[model.ProcessID]string
	links  map[model.ProcessID]*peerLink
	open   map[net.Conn]bool // every live conn, dialed or accepted
	cut    map[model.ProcessID]bool
	hook   *FaultHook
	closed bool

	inboxDrops, linkDrops atomic.Uint64

	wg sync.WaitGroup
}

// peerLink serializes writes to one peer. conn is nil until dialed;
// conn and buf, the frame being written, are accessed only with mu
// held.
type peerLink struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

// TCPStats counts the frames a TCPNode lost without telling anyone.
// Frames shed by a cut or by the fault hook are injected faults, not
// losses, and are not counted here.
type TCPStats struct {
	// InboxDrops are frames read off a socket and discarded because
	// the receive queue was full.
	InboxDrops uint64
	// LinkDrops are frames Send accepted and then lost to a peer that
	// could not be dialed or a connection that broke mid-write.
	LinkDrops uint64
}

// Stats returns the node's silent-loss counters so far.
func (n *TCPNode) Stats() TCPStats {
	return TCPStats{InboxDrops: n.inboxDrops.Load(), LinkDrops: n.linkDrops.Load()}
}

var _ Transport = (*TCPNode)(nil)

// maxFrame bounds a frame to 1 MiB; larger frames indicate corruption.
const maxFrame = 1 << 20

// NewTCPNode starts a node listening on 127.0.0.1:0 (kernel-assigned
// port). Register peer addresses with SetPeer before sending.
func NewTCPNode(self model.ProcessID) (*TCPNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	n := &TCPNode{
		self:  self,
		ln:    ln,
		in:    make(chan Envelope, 256),
		peers: map[model.ProcessID]string{},
		links: map[model.ProcessID]*peerLink{},
		open:  map[net.Conn]bool{},
		cut:   map[model.ProcessID]bool{},
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address, for peer registration.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// SetPeer registers the address of peer p.
func (n *TCPNode) SetPeer(p model.ProcessID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[p] = addr
}

// SetCut installs (or removes) a partition against peer p: while cut,
// outbound envelopes to p are silently dropped and inbound frames from
// p are discarded on arrival. This emulates a network partition at the
// socket layer, no iptables required — both endpoints of a cut edge
// are told to drop, so a one-sided liar still loses its half of the
// conversation.
func (n *TCPNode) SetCut(p model.ProcessID, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cut {
		n.cut[p] = true
	} else {
		delete(n.cut, p)
	}
}

// SetFaultHook installs (or, with nil, removes) the seeded drop/delay
// lottery applied to every outbound envelope — the live lowering of the
// fault plan's loss axes. Install it before traffic starts so frame
// indices count from zero.
func (n *TCPNode) SetFaultHook(h *FaultHook) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hook = h
}

// Self implements Transport.
func (n *TCPNode) Self() model.ProcessID { return n.self }

// Recv implements Transport.
func (n *TCPNode) Recv() <-chan Envelope { return n.in }

// Send implements Transport: dial-on-demand with connection reuse.
// A peer that cannot be reached loses the message silently (crash-stop
// peers look exactly like that); dialing errors for unregistered
// peers are returned.
func (n *TCPNode) Send(env Envelope) error {
	n.mu.Lock()
	hook := n.hook
	n.mu.Unlock()
	if hook != nil {
		drop, delay := hook.Decide(env.To)
		if drop {
			return nil // seeded loss: the frame is gone
		}
		if delay > 0 {
			// Re-send after the drawn latency, bypassing the hook so the
			// frame is not judged twice. A node closed in the meantime
			// just loses the frame, like any in-flight packet.
			env := env
			time.AfterFunc(delay, func() { _ = n.send(env) })
			return nil
		}
	}
	return n.send(env)
}

// send delivers one envelope past the fault hook: the dial-on-demand
// path shared by immediate and delayed frames.
func (n *TCPNode) send(env Envelope) error {
	env.From = n.self
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.cut[env.To] {
		n.mu.Unlock()
		return nil // partitioned: silent loss
	}
	link, ok := n.links[env.To]
	if !ok {
		if _, known := n.peers[env.To]; !known {
			n.mu.Unlock()
			return fmt.Errorf("transport: peer %v not registered", env.To)
		}
		link = &peerLink{}
		n.links[env.To] = link
	}
	addr := n.peers[env.To]
	n.mu.Unlock()

	link.mu.Lock()
	defer link.mu.Unlock()
	var err error
	if link.buf, err = appendFrame(link.buf[:0], env); err != nil {
		return err // the caller's mistake, not a loss: the link stays up
	}
	if link.conn == nil {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			n.linkDrops.Add(1)
			return nil // unreachable peer ≈ lost message
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return ErrClosed
		}
		n.open[conn] = true
		n.mu.Unlock()
		link.conn = conn
	}
	if _, err := link.conn.Write(link.buf); err != nil {
		n.linkDrops.Add(1)
		conn := link.conn
		link.conn = nil
		n.mu.Lock()
		delete(n.open, conn)
		n.mu.Unlock()
		_ = conn.Close()
		return nil // broken pipe ≈ lost message
	}
	return nil
}

// Close implements Transport: it severs every open connection (which
// fails any in-flight writer or reader), stops the accept loop, waits
// for the reader goroutines, and closes the receive channel. It never
// waits for a blocked writer — closing the connection is what unblocks
// it.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.open))
	for c := range n.open {
		conns = append(conns, c)
	}
	n.open = map[net.Conn]bool{}
	n.mu.Unlock()

	_ = n.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	n.wg.Wait()
	close(n.in)
	return nil
}

// acceptLoop accepts inbound connections and spawns a reader per
// connection.
func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.open[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection into the recv
// channel, discarding frames from cut peers.
func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.open, conn)
		n.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	for {
		env, err := readFrame(r)
		if err != nil {
			return
		}
		n.mu.Lock()
		closed, dropped := n.closed, n.cut[env.From]
		n.mu.Unlock()
		if closed {
			return
		}
		if dropped {
			continue // inbound half of a partition
		}
		select {
		case n.in <- env:
		default:
			// Receiver queue full: drop like a full socket buffer.
			n.inboxDrops.Add(1)
		}
	}
}

// WriteJSON frames an arbitrary JSON-marshalable value: 4-byte
// big-endian length, then the JSON bytes. This is the cluster control
// channel's codec; envelopes between nodes travel as binary frames
// (appendFrame) and never pass through it.
func WriteJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("transport: marshal frame: %w", err)
	}
	if len(b) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadJSON reads one length-prefixed JSON frame into v, rejecting
// frames over the 1 MiB limit before allocating.
func ReadJSON(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("transport: bad frame: %w", err)
	}
	return nil
}

// appendFrame appends env's wire frame to dst:
//
//	size    4 bytes big-endian, the length of what follows, ≤ maxFrame
//	from    uvarint
//	to      uvarint
//	typeLen uvarint
//	type    typeLen bytes
//	body    the rest of the frame, env.Body verbatim
//
// An envelope too large to frame is refused with dst unchanged.
func appendFrame(dst []byte, env Envelope) ([]byte, error) {
	var hdr [4 + 3*binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(hdr[:4], uint64(env.From))
	h = binary.AppendUvarint(h, uint64(env.To))
	h = binary.AppendUvarint(h, uint64(len(env.Type)))
	size := len(h) - 4 + len(env.Type) + len(env.Body)
	if size > maxFrame {
		return dst, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	binary.BigEndian.PutUint32(h, uint32(size))
	dst = append(dst, h...)
	dst = append(dst, env.Type...)
	return append(dst, env.Body...), nil
}

// readFrame reads one frame written by appendFrame, rejecting a size
// over the limit before allocating. The returned body is the frame's
// own buffer, not r's.
func readFrame(r *bufio.Reader) (Envelope, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return Envelope{}, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > maxFrame {
		return Envelope{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	_, _ = r.Discard(4) // cannot fail: Peek buffered them
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, err
	}
	var fields [3]uint64 // from, to, typeLen
	for i := range fields {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return Envelope{}, fmt.Errorf("transport: bad frame: truncated header")
		}
		fields[i], buf = v, buf[k:]
	}
	typeLen := fields[2]
	if typeLen > uint64(len(buf)) {
		return Envelope{}, fmt.Errorf("transport: bad frame: type of %d bytes in the %d left", typeLen, len(buf))
	}
	return Envelope{
		From: model.ProcessID(fields[0]),
		To:   model.ProcessID(fields[1]),
		Type: string(buf[:typeLen]),
		Body: buf[typeLen:],
	}, nil
}

// NewTCPCluster starts n interconnected TCP nodes on localhost and
// registers all peer addresses. Close every node (or use
// CloseTCPCluster) when done.
func NewTCPCluster(n int) ([]*TCPNode, error) {
	if err := model.ValidateN(n); err != nil {
		return nil, err
	}
	nodes := make([]*TCPNode, 0, n)
	for p := 1; p <= n; p++ {
		nd, err := NewTCPNode(model.ProcessID(p))
		if err != nil {
			CloseTCPCluster(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.SetPeer(b.Self(), b.Addr())
			}
		}
	}
	return nodes, nil
}

// CloseTCPCluster closes every node of a cluster.
func CloseTCPCluster(nodes []*TCPNode) {
	for _, nd := range nodes {
		if nd != nil {
			_ = nd.Close()
		}
	}
}
