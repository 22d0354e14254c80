// Package transport provides the live message layer under the
// heartbeat failure detectors and the membership service: an
// in-process network with seeded delay/drop/partition injection for
// deterministic tests, and a TCP transport (length-prefixed binary
// frames over localhost sockets) for the real thing. An envelope's
// body is raw bytes end to end; the package's JSON framing
// (WriteJSON/ReadJSON) serves the cluster control channel only.
//
// The paper's practical observation (§1.3) is that real systems
// emulate a Perfect detector with timeout-based group membership; this
// package supplies the "real" substrate those experiments (E9) run on.
package transport

import (
	"encoding/json"
	"errors"
	"fmt"

	"realisticfd/internal/model"
)

// Envelope is one transport message. Body is opaque bytes in whatever
// encoding the protocol named by Type chose, so heterogeneous protocols
// (heartbeats, membership, application) share a link and a binary
// payload travels as it is.
type Envelope struct {
	From model.ProcessID `json:"from"`
	To   model.ProcessID `json:"to"`
	Type string          `json:"type"`
	Body []byte          `json:"body,omitempty"`
}

// Marshal sets the envelope body to v: a []byte verbatim (shared, not
// copied), any other value as its JSON encoding.
func (e *Envelope) Marshal(v any) error {
	if b, ok := v.([]byte); ok {
		e.Body = b
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("transport: marshal body: %w", err)
	}
	e.Body = b
	return nil
}

// Unmarshal is Marshal's inverse: a *[]byte receives the body verbatim
// (shared, not copied), any other v the JSON decoding of it.
func (e *Envelope) Unmarshal(v any) error {
	if p, ok := v.(*[]byte); ok {
		*p = e.Body
		return nil
	}
	if err := json.Unmarshal(e.Body, v); err != nil {
		return fmt.Errorf("transport: unmarshal body: %w", err)
	}
	return nil
}

// Transport is one node's endpoint. Implementations must be safe for
// concurrent use. Recv's channel is closed by Close.
//
// An envelope's Body is read-only from the moment it is handed to Send:
// a sender may give one slice to many destinations (a gossip round
// does), an in-process transport delivers that same slice, and so
// neither the sender afterwards nor any receiver may write to it.
type Transport interface {
	// Self returns the node's identity.
	Self() model.ProcessID
	// Send transmits the envelope to env.To. Sends after Close (or to
	// closed networks) return ErrClosed; sends lost to injected
	// faults return nil — loss is silent, as on a real network.
	Send(env Envelope) error
	// Recv returns the channel of inbound envelopes.
	Recv() <-chan Envelope
	// Close releases resources and unblocks Recv.
	Close() error
}

// ErrClosed is returned by sends on closed transports.
var ErrClosed = errors.New("transport: closed")
