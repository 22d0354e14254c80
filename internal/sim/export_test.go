package sim

import "realisticfd/internal/model"

// ScribbleRecycled overwrites every slot a RunContext hands out again
// on its next run — the Message, Sends and protocol-Events arenas and
// the trace's schedule up to its capacity — with values no run writes.
// The engine fills those slots without clearing them, so afterwards a
// field it fails to write differs from a fresh run's zero. A run of the
// engine cannot dirty them that way: with a write left out, its own
// runs leave that field zero as well.
func ScribbleRecycled(rc *RunContext) {
	stale := &Message{ID: -1, From: -1, To: -1, SentAt: -1, SentBy: -1, Payload: "stale"}
	for _, c := range rc.msgs.chunks {
		for i := range c {
			c[i] = *stale
		}
	}
	for _, c := range rc.sends.chunks {
		for i := range c {
			c[i] = stale
		}
	}
	for _, c := range rc.events.chunks {
		for i := range c {
			c[i] = ProtocolEvent{Kind: -1, Instance: -1, Value: "stale"}
		}
	}
	evs := rc.trace.Events[:cap(rc.trace.Events)]
	for i := range evs {
		evs[i] = EventRecord{
			Index: -1, P: -1, T: -1, Msg: stale, FD: model.NewProcessSet(1),
			Sends: []*Message{stale}, Events: []ProtocolEvent{{Kind: -1}}, PrevSameProc: -2,
		}
	}
}

// RefAppendCanonical is the pre-fusion encoder, refAppendCanonical.
var RefAppendCanonical = refAppendCanonical

// FaultSeed is the lottery seed of a faulty run at seed: the first
// draw of the generator the engine starts that run with.
func FaultSeed(seed int64) uint64 { return NewRunContext().startRNG(seed).Uint64() }
