package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"realisticfd/internal/model"
)

// DigestVersion names the canonical encoding Digest hashes and opens it.
// A changed encoding is a new version (and checkpoint schema: harness).
const DigestVersion = "fdtrace/2"

// Digest returns a hex SHA-256 fingerprint of the full run — the hash
// of AppendCanonical. It is how the replay tests and the parallel-sweep
// determinism checks state "same Config + same Seed ⇒ same run", the
// property the Lemma 4.1 indistinguishability argument rests on.
//
// Version contract: equal digests ⇒ equal WriteText, on any two traces;
// on traces the engine built the converse holds too. Values are
// comparable only within one DigestVersion.
func (tr *Trace) Digest() string {
	tr.scratch = tr.AppendCanonical(tr.scratch[:0])
	sum := sha256.Sum256(tr.scratch)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// AppendCanonical appends the trace's canonical binary encoding to b:
// DigestVersion, N, stop reason, pattern, every event (index, p, t, FD
// word, prev, received message, sends, protocol events), the undelivered
// buffer. Integers are uvarints (zigzag varints where −1 is ordinary),
// payloads and event values a uvarint length and their %v rendering. It
// is the streaming sweeps' per-run hot path and the only encoder on it.
// DESIGN.md §6 has the layout, internal/sim/tracetest the decoder that
// proves WriteText is a function of these bytes.
func (tr *Trace) AppendCanonical(b []byte) []byte {
	b = append(b, DigestVersion...)
	b = binary.AppendUvarint(b, uint64(tr.N))
	b = binary.AppendUvarint(b, uint64(tr.Stopped))
	// Pattern: 0 for nil, else n + 1, then per process 0 or crash time + 1.
	if f := tr.Pattern; f == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(f.N())+1)
		for p := 1; p <= f.N(); p++ {
			t, crashed := f.CrashTime(model.ProcessID(p))
			if !crashed {
				t = -1
			}
			b = binary.AppendUvarint(b, uint64(t+1))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Events)))
	for i := range tr.Events {
		ev := &tr.Events[i]
		b = binary.AppendUvarint(b, uint64(ev.Index))
		b = binary.AppendUvarint(b, uint64(ev.P))
		b = binary.AppendUvarint(b, uint64(ev.T))
		b = binary.AppendUvarint(b, ev.FD.Word())
		b = binary.AppendVarint(b, int64(ev.PrevSameProc))
		if ev.Msg == nil {
			b = append(b, refNone)
		} else {
			b = tr.appendMessage(b, ev.Msg, i)
		}
		b = binary.AppendUvarint(b, uint64(len(ev.Sends)))
		for _, m := range ev.Sends {
			b = binary.AppendUvarint(b, uint64(m.ID))
			b = binary.AppendUvarint(b, uint64(m.To))
			b = appendValue(b, m.Payload)
		}
		b = binary.AppendUvarint(b, uint64(len(ev.Events)))
		for _, pe := range ev.Events {
			b = binary.AppendVarint(b, int64(pe.Kind))
			b = binary.AppendVarint(b, int64(pe.Instance))
			b = appendValue(b, pe.Value)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Undelivered)))
	for _, m := range tr.Undelivered {
		b = tr.appendMessage(b, m, len(tr.Events))
	}
	return b
}

// A received or undelivered message opens with refNone (λ), refFull and
// the whole record, or refBack+j and then k, meaning Events[k].Sends[j].
const (
	refNone = iota
	refFull
	refBack
)

// appendMessage writes m as it stands after `written` events. Nearly
// always m was already written in full as a send, and its position says
// as much as the record would: m must be the very object at
// Events[k].Sends[j] (k = SentBy < written; j found in O(1) from the
// consecutive IDs the engine assigns) and carry that event's P and T,
// which a send record leaves to its event. Anything else — hand-built
// traces, SentBy = −1, injected messages — is written in full, so the
// encoding is injective on every Trace.
func (tr *Trace) appendMessage(b []byte, m *Message, written int) []byte {
	if k := m.SentBy; k >= 0 && k < written {
		ev := &tr.Events[k]
		if len(ev.Sends) > 0 && m.From == ev.P && m.SentAt == ev.T {
			if j := uint64(m.ID) - uint64(ev.Sends[0].ID); j < uint64(len(ev.Sends)) && ev.Sends[j] == m {
				return binary.AppendUvarint(binary.AppendUvarint(b, refBack+j), uint64(k))
			}
		}
	}
	b = append(b, refFull)
	b = binary.AppendUvarint(b, uint64(m.ID))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, uint64(m.To))
	b = binary.AppendUvarint(b, uint64(m.SentAt))
	b = binary.AppendVarint(b, int64(m.SentBy))
	return appendValue(b, m.Payload)
}

// appendValue appends v's rendering behind its uvarint length; only a
// string, most of what protocols send, has its length known beforehand.
func appendValue(b []byte, v any) []byte {
	if s, ok := v.(string); ok {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	at := len(b)
	b = appendRendered(b, v)
	var l [binary.MaxVarintLen64]byte
	return slices.Insert(b, at, l[:binary.PutUvarint(l[:], uint64(len(b)-at))]...)
}

// appendRendered appends fmt's %v rendering of v: what is hashed of a
// payload is what WriteText prints. The fast paths avoid boxing; their
// order mirrors fmt.handleMethods: Formatter, then error, then Stringer.
func appendRendered(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "<nil>"...)
	case int:
		return model.AppendDecimal(b, int64(x))
	case int64:
		return model.AppendDecimal(b, x)
	case model.Time:
		return model.AppendDecimal(b, int64(x))
	case model.ProcessID:
		return append(b, x.String()...)
	case bool:
		return strconv.AppendBool(b, x)
	case fmt.Formatter:
		return fmt.Appendf(b, "%v", v)
	case error:
		return append(b, x.Error()...)
	case fmt.Stringer:
		return append(b, x.String()...)
	default:
		return fmt.Append(b, v)
	}
}
