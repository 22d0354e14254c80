package consensus

import (
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// PartialOrder is the P<-based algorithm of §6.2 (after Guerraoui,
// WDAG 1995) solving *correct-restricted* consensus with an unbounded
// number of failures: agreement is guaranteed among correct processes
// only, and the paper uses the gap between this algorithm and
// Proposition 4.3 to conclude that uniform consensus is strictly
// harder than consensus.
//
// Protocol: process p_i waits, for every j < i, until it has received
// p_j's broadcast value or suspects p_j — a wait P< can always resolve
// because partial completeness makes higher-indexed processes
// eventually suspect crashed lower-indexed ones, and strong accuracy
// makes every suspicion true. It then adopts the value of the
// *highest-indexed* process it heard from (its own if none),
// broadcasts that value, and decides it.
//
// Agreement among correct processes: let m be the lowest correct
// index. Every process with index > m waits for p_m (it can never
// suspect it) and, by induction on the index, every broadcaster ≥ m
// broadcasts exactly p_m's adopted value. Faulty processes below m may
// decide differently and crash — the uniform-agreement violation that
// experiment E6 exhibits.
type PartialOrder struct {
	Proposals Proposals
}

var _ sim.Automaton = PartialOrder{}

// Spawn implements sim.Automaton.
func (a PartialOrder) Spawn(self model.ProcessID, n int) sim.Process {
	return &poProc{self: self, n: n, own: a.Proposals[self], heard: map[model.ProcessID]Value{}}
}

// poValue is the adopted value broadcast upon deciding.
type poValue struct {
	Val Value
}

type poProc struct {
	self  model.ProcessID
	n     int
	own   Value
	heard map[model.ProcessID]Value
	done  bool
}

// Step implements sim.Process.
func (p *poProc) Step(in *sim.Message, susp model.ProcessSet, _ model.Time) sim.Actions {
	var acts sim.Actions
	if in != nil {
		if m, ok := in.Payload.(poValue); ok {
			if _, dup := p.heard[in.From]; !dup {
				p.heard[in.From] = m.Val
			}
		}
	}
	if p.done {
		return acts
	}

	// Wait for every lower-indexed process: value received or
	// suspected.
	for j := model.ProcessID(1); j < p.self; j++ {
		if _, ok := p.heard[j]; !ok && !susp.Has(j) {
			return acts
		}
	}

	// Adopt the value of the highest-indexed process heard from.
	v := p.own
	for j := p.self - 1; j >= 1; j-- {
		if hv, ok := p.heard[j]; ok {
			v = hv
			break
		}
	}
	p.done = true
	acts.Sends = sim.AppendOthers(acts.Sends, p.n, p.self, poValue{Val: v})
	acts.Events = append(acts.Events, sim.ProtocolEvent{
		Kind: sim.KindDecide, Instance: 0, Value: v,
	})
	return acts
}
