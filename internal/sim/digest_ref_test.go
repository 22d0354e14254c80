package sim

import (
	"encoding/binary"
	"reflect"

	"realisticfd/internal/model"
)

// refAppendCanonical is Trace.AppendCanonical as it was before the
// encoder fused its per-send work into one pass: run walks a run, then
// note walks it again, appending each destination, and isComplement
// visits every event. It shares appendMessage and appendValue, which
// that change left alone. The tests hold the fused encoder to exactly
// these bytes; tracetest proves only that they decode.
//
// The bodies below are the old ones verbatim, on a scratch of their own.
func refAppendCanonical(tr *Trace, b []byte) []byte {
	s := &refScratch{}
	s.spans, s.to = s.spans[:0], s.to[:0]
	clear(s.count[:])
	s.stray = false
	limit := min(tr.N, model.MaxProcesses)

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
	next := int64(1) // the ID the engine gives its first send
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
			var at int
			if b, at = s.appendMessage(b, tr, ev.Msg, i); at >= 0 && s.to[at] != 0 {
				s.count[s.to[at]]--
				s.to[at] = 0
			}
		}

		span := sendSpan{at: len(s.to)}
		if len(ev.Sends) > 0 {
			span.first = ev.Sends[0].ID
		}
		s.spans = append(s.spans, span)
		b = binary.AppendUvarint(b, uint64(len(ev.Sends)))
		for sends := ev.Sends; len(sends) > 0; {
			n := s.run(sends, ev, i, limit)
			m := sends[0]
			b = binary.AppendVarint(b, m.ID-next)
			b = binary.AppendUvarint(b, uint64(m.To))
			b = binary.AppendUvarint(b, uint64(n))
			b = appendValue(b, m.Payload)
			next = m.ID + int64(n)
			sends = sends[n:]
		}

		b = binary.AppendUvarint(b, uint64(len(ev.Events)))
		for _, pe := range ev.Events {
			b = binary.AppendVarint(b, int64(pe.Kind))
			b = binary.AppendVarint(b, int64(pe.Instance))
			b = appendValue(b, pe.Value)
		}
	}
	if s.isComplement(tr) {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Undelivered))+1)
	for _, m := range tr.Undelivered {
		b, _ = s.appendMessage(b, tr, m, len(tr.Events))
	}
	return b
}

// refScratch gives the old run, note and isComplement the old scratch
// layout; appendMessage is canonScratch's own.
type refScratch struct{ canonScratch }

func (s *refScratch) run(sends []*Message, ev *EventRecord, k, limit int) int {
	m, n := sends[0], 1
	str, isStr := m.Payload.(string)
	if m.To >= 1 && int(m.To) < limit && (isStr || reflect.ValueOf(m.Payload).Kind() == reflect.Pointer) {
		for ; n < len(sends) && int(m.To)+n <= limit; n++ {
			next := sends[n]
			if next.ID != m.ID+int64(n) || next.To != m.To+model.ProcessID(n) {
				break
			}
			if isStr {
				if s, ok := next.Payload.(string); !ok || s != str {
					break
				}
			} else if next.Payload != m.Payload { // pointers: compares addresses
				break
			}
		}
	}
	for _, m := range sends[:n] {
		s.note(m, ev, k, limit)
	}
	return n
}

func (s *refScratch) note(m *Message, ev *EventRecord, k, limit int) {
	q := uint8(0)
	if m.To < 1 || int(m.To) > limit || m.SentBy != k || m.From != ev.P || m.SentAt != ev.T {
		s.stray = true
	} else {
		q = uint8(m.To)
		s.count[q]++
	}
	s.to = append(s.to, q)
}

func (s *refScratch) isComplement(tr *Trace) bool {
	if s.stray {
		return false
	}
	u := tr.Undelivered
	var slot [model.MaxProcesses + 1]int // where the next send to q belongs in u
	total := 0
	for q, c := range s.count {
		slot[q] = total
		total += c
	}
	if total != len(u) {
		return false
	}
	for k := range tr.Events {
		to := s.to[s.spans[k].at:]
		for j, m := range tr.Events[k].Sends {
			if q := to[j]; q != 0 {
				if u[slot[q]] != m {
					return false
				}
				slot[q]++
			}
		}
	}
	return true
}
