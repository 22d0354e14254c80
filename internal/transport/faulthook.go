package transport

import (
	"sync"
	"time"

	"realisticfd/internal/model"
)

// FaultHook is the live counterpart of the simulator's per-message
// fault lottery (sim.LinkFaults): seeded probabilistic drop and
// bounded extra delay applied to every outbound frame of a TCPNode.
// The verdict for a frame is a pure function of (seed, sender,
// destination, per-destination frame index) — never of wall-clock time
// or goroutine interleaving — so two runs whose links carry the same
// frame sequence make byte-identical drop/delay decisions. That purity
// is what makes live fault injection auditable: the orchestrator can
// assert reproducibility across runs (and the determinism test does).
//
// Rates are mutable mid-run (the fault-plan interpreter flips them at
// scripted instants); the frame index keeps counting while rates are
// zero, so the verdict of frame k is fixed for the whole run whether or
// not loss was enabled when it was sent.
type FaultHook struct {
	seed uint64
	self model.ProcessID

	mu         sync.Mutex
	dropPct    int
	delayMaxMs int
	frames     map[model.ProcessID]uint64
	drops      map[model.ProcessID]uint64
	decisions  map[model.ProcessID][]bool // first decisionCap verdicts per link
}

// decisionCap bounds the recorded per-link decision history: enough to
// compare runs, bounded so a long campaign cannot grow it unboundedly.
const decisionCap = 4096

// delaySalt decorrelates the delay lottery from the drop lottery.
const delaySalt = 0xd1b54a32d192ed03

// NewFaultHook builds a hook for frames sent by self under the given
// lottery seed. Rates start at zero (no perturbation).
func NewFaultHook(self model.ProcessID, seed uint64) *FaultHook {
	return &FaultHook{
		seed:      seed,
		self:      self,
		frames:    map[model.ProcessID]uint64{},
		drops:     map[model.ProcessID]uint64{},
		decisions: map[model.ProcessID][]bool{},
	}
}

// linkLottery hashes one (seed, link, frame) triple with model.Mix64,
// the finalizer behind the simulator's per-message lottery too.
func linkLottery(seed uint64, from, to model.ProcessID, frame uint64) uint64 {
	h := model.Mix64(seed ^ uint64(from)<<32 ^ uint64(to))
	return model.Mix64(h ^ frame)
}

// SetDrop sets the outbound loss percentage (0..100).
func (h *FaultHook) SetDrop(pct int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropPct = pct
}

// SetDelayMax sets the extra-latency bound in milliseconds; each
// non-dropped frame is delayed uniformly in [0, max].
func (h *FaultHook) SetDelayMax(ms int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.delayMaxMs = ms
}

// Decide consumes the next frame index of the link to dest and returns
// the frame's fate under the current rates.
func (h *FaultHook) Decide(to model.ProcessID) (drop bool, delay time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := h.frames[to]
	h.frames[to] = idx + 1
	if h.dropPct > 0 && linkLottery(h.seed, h.self, to, idx)%100 < uint64(h.dropPct) {
		drop = true
		h.drops[to]++
	} else if h.delayMaxMs > 0 {
		d := linkLottery(h.seed^delaySalt, h.self, to, idx) % uint64(h.delayMaxMs+1)
		delay = time.Duration(d) * time.Millisecond
	}
	if idx < decisionCap {
		h.decisions[to] = append(h.decisions[to], drop)
	}
	return drop, delay
}

// LinkStats is the per-destination frame/drop tally of one link.
type LinkStats struct {
	Frames uint64 `json:"frames"`
	Drops  uint64 `json:"drops"`
}

// Stats snapshots the per-link tallies, keyed by destination.
func (h *FaultHook) Stats() map[model.ProcessID]LinkStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[model.ProcessID]LinkStats, len(h.frames))
	for to, frames := range h.frames {
		out[to] = LinkStats{Frames: frames, Drops: h.drops[to]}
	}
	return out
}

// Decisions returns the recorded verdict prefix of the link to dest
// (true = dropped), at most decisionCap entries. Two runs with the same
// seed must agree on the common prefix — the determinism assertion.
func (h *FaultHook) Decisions(to model.ProcessID) []bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]bool(nil), h.decisions[to]...)
}
