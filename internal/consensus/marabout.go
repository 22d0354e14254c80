package consensus

import (
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// MaraboutConsensus is the "obvious algorithm" of §6.1 that solves
// consensus using the non-realistic Marabout detector M even with an
// unbounded number of failures: every process selects the
// lowest-indexed process that is not suspected — under M, the
// lowest-indexed *correct* process, known from time zero — as leader.
// The leader broadcasts its value and decides it; everyone else waits
// for the leader's value and decides it.
//
// The algorithm is sound only because M is accurate about the future;
// run it with any realistic detector and the "leader" may crash after
// deciding alone, or false suspicions may elect two leaders. Its
// existence is why the paper's lower bound (Proposition 4.3) must be
// stated within the realistic space.
type MaraboutConsensus struct {
	Proposals Proposals
}

var _ sim.Automaton = MaraboutConsensus{}

// Spawn implements sim.Automaton.
func (a MaraboutConsensus) Spawn(self model.ProcessID, n int) sim.Process {
	return &mbProc{self: self, n: n, own: a.Proposals[self]}
}

// mbValue is the leader's broadcast value.
type mbValue struct {
	Val Value
}

type mbProc struct {
	self model.ProcessID
	n    int
	own  Value

	sent bool
	done bool
	// pending holds values received from processes before we could
	// confirm them as leader (message may arrive before a λ step).
	pending map[model.ProcessID]Value
}

// Step implements sim.Process.
func (p *mbProc) Step(in *sim.Message, susp model.ProcessSet, _ model.Time) sim.Actions {
	var acts sim.Actions
	if p.done {
		return acts
	}
	if in != nil {
		if m, ok := in.Payload.(mbValue); ok {
			if p.pending == nil {
				p.pending = make(map[model.ProcessID]Value, 1)
			}
			p.pending[in.From] = m.Val
		}
	}

	// Select p_j: not suspected, and no lower-indexed unsuspected
	// process exists.
	leader := model.AllProcesses(p.n).Diff(susp).Min()
	if leader == 0 {
		return acts // everyone suspected: wait (cannot happen under M)
	}
	if leader == p.self {
		if !p.sent {
			p.sent = true
			acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, mbValue{Val: p.own})
		}
		p.done = true
		acts.Events = append(acts.Events, sim.ProtocolEvent{
			Kind: sim.KindDecide, Instance: 0, Value: p.own,
		})
		return acts
	}
	if v, ok := p.pending[leader]; ok {
		p.done = true
		acts.Events = append(acts.Events, sim.ProtocolEvent{
			Kind: sim.KindDecide, Instance: 0, Value: v,
		})
	}
	return acts
}
