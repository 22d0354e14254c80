package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"realisticfd/internal/model"
)

// Digest returns a hex SHA-256 fingerprint of the full run: the
// schedule with times, received and sent messages (payloads included),
// failure-detector samples, protocol events, the final failure pattern
// and the undelivered buffer. Two runs are byte-identical iff their
// digests match, which is how the replay regression tests and the
// parallel-sweep determinism checks state "same Config + same Seed ⇒
// same run" — the property the Lemma 4.1 indistinguishability argument
// (and every deterministic replay) rests on.
func (tr *Trace) Digest() string {
	h := sha256.New()
	tr.encode(h)
	return hex.EncodeToString(h.Sum(nil))
}

// digestBlock is the size at which encode hands its buffer to the
// writer: large enough that SHA-256 consumes whole blocks straight
// from the buffer instead of staging sub-block writes, small enough
// that the retained scratch stays a minor part of a run context.
const digestBlock = 16 << 10

// encode writes a canonical rendering of the trace to w. The rendering
// is pinned by the golden-trace digests, so its bytes must never
// change; the write boundaries are not pinned. It is the streaming
// sweeps' per-run hot path (one digest per run; at n=64 it costs more
// than the run), so lines are assembled with append-style formatting
// in the scratch buffer the trace retains across runs and reach w one
// block at a time: a Write whenever a finished line brings the buffer
// to digestBlock, and one at the end — per-line writes made the hash
// stage and copy every sub-block piece. The buffer grows by append, so
// a short trace never holds a whole block. appendValue replicates %v
// for every payload shape.
func (tr *Trace) encode(w io.Writer) {
	b := tr.scratch[:0]
	b = fmt.Appendf(b, "n=%d stopped=%d pattern=%s\n", tr.N, tr.Stopped, tr.Pattern)
	for i := range tr.Events {
		ev := &tr.Events[i]
		b = append(b, 'e')
		b = model.AppendDecimal(b, int64(ev.Index))
		b = append(b, " p="...)
		b = model.AppendDecimal(b, int64(ev.P))
		b = append(b, " t="...)
		b = model.AppendDecimal(b, int64(ev.T))
		b = append(b, " fd="...)
		b = ev.FD.AppendText(b)
		b = append(b, " prev="...)
		b = model.AppendDecimal(b, int64(ev.PrevSameProc))
		if m := ev.Msg; m != nil {
			b = append(b, " rcv=("...)
			b = model.AppendDecimal(b, m.ID)
			b = append(b, ' ')
			b = model.AppendDecimal(b, int64(m.From))
			b = append(b, '>')
			b = model.AppendDecimal(b, int64(m.To))
			b = append(b, " @"...)
			b = model.AppendDecimal(b, int64(m.SentAt))
			b = append(b, " by"...)
			b = model.AppendDecimal(b, int64(m.SentBy))
			b = append(b, ' ')
			b = appendValue(b, m.Payload)
			b = append(b, ')')
		}
		for _, m := range ev.Sends {
			b = append(b, " snd=("...)
			b = model.AppendDecimal(b, m.ID)
			b = append(b, " >"...)
			b = model.AppendDecimal(b, int64(m.To))
			b = append(b, ' ')
			b = appendValue(b, m.Payload)
			b = append(b, ')')
		}
		for _, pe := range ev.Events {
			b = append(b, " ev=("...)
			b = model.AppendDecimal(b, int64(pe.Kind))
			b = append(b, ' ')
			b = model.AppendDecimal(b, int64(pe.Instance))
			b = append(b, ' ')
			b = appendValue(b, pe.Value)
			b = append(b, ')')
		}
		b = append(b, '\n')
		if len(b) >= digestBlock {
			w.Write(b)
			b = b[:0]
		}
	}
	for _, m := range tr.Undelivered {
		b = append(b, "u=("...)
		b = model.AppendDecimal(b, m.ID)
		b = append(b, ' ')
		b = model.AppendDecimal(b, int64(m.From))
		b = append(b, '>')
		b = model.AppendDecimal(b, int64(m.To))
		b = append(b, " @"...)
		b = model.AppendDecimal(b, int64(m.SentAt))
		b = append(b, ' ')
		b = appendValue(b, m.Payload)
		b = append(b, ")\n"...)
		if len(b) >= digestBlock {
			w.Write(b)
			b = b[:0]
		}
	}
	w.Write(b)
	tr.scratch = b
}

// appendValue appends fmt's %v rendering of v. The fast paths cover
// the payload shapes protocols actually send (strings, integers,
// Stringers) without boxing; everything else falls back to fmt, whose
// default single-operand formatting is %v — so the bytes are identical
// to the fmt.Fprintf they replace in every case. Dispatch order
// mirrors fmt.handleMethods: Formatter, then error, then Stringer.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "<nil>"...)
	case string:
		return append(b, x...)
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
