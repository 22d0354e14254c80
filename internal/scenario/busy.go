package scenario

import (
	"sync"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// BusyAutomaton is the load-shaped broadcast workload behind the
// "busy" protocol kind (and the n=64 sweep benchmarks): every process
// seeds one broadcast and re-broadcasts on every 8th received message,
// keeping the message buffer full for the whole horizon. It decides
// nothing — its job is to exercise the transport and fault layers at
// scale.
type BusyAutomaton struct{}

var _ sim.Respawner = BusyAutomaton{}

type busyProc struct {
	self model.ProcessID
	fan  *busyFanout
	seen int
	sent bool
}

// busyFanout caches the two broadcast fan-outs for one system size.
// The engine copies Sends into its own arena within the step and never
// mutates or retains the slice, so every process of every run — across
// parallel sweep workers — shares the same two read-only slices; in a
// million-seed campaign this was the dominant per-run allocation.
type busyFanout struct {
	seed, echo []sim.Send
}

var busyFanouts sync.Map // int (n) -> *busyFanout

func busyFanoutFor(n int) *busyFanout {
	if v, ok := busyFanouts.Load(n); ok {
		return v.(*busyFanout)
	}
	v, _ := busyFanouts.LoadOrStore(n, &busyFanout{
		seed: sim.Broadcast(n, "seed"),
		echo: sim.Broadcast(n, "echo"),
	})
	return v.(*busyFanout)
}

// Spawn implements sim.Automaton.
func (BusyAutomaton) Spawn(self model.ProcessID, n int) sim.Process {
	return &busyProc{self: self, fan: busyFanoutFor(n)}
}

// Respawn implements sim.Respawner: a busy process of a previous run at
// the same n starts over in place, so a sweep on a reused RunContext
// allocates no processes after its first seed.
func (a BusyAutomaton) Respawn(old sim.Process, self model.ProcessID, n int) sim.Process {
	p, ok := old.(*busyProc)
	if !ok || len(p.fan.seed) != n { // a fan-out holds one send per process
		return a.Spawn(self, n)
	}
	*p = busyProc{self: self, fan: p.fan}
	return p
}

// Step implements sim.Process.
func (p *busyProc) Step(in *sim.Message, _ model.ProcessSet, _ model.Time) sim.Actions {
	var acts sim.Actions
	if !p.sent {
		p.sent = true
		acts.Sends = p.fan.seed
	}
	if in != nil {
		p.seen++
		if p.seen%8 == 0 {
			acts.Sends = p.fan.echo
		}
	}
	return acts
}
