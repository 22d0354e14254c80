package sim

import (
	"math/rand"

	"realisticfd/internal/model"
)

// Policy decides the non-determinism of a run: which process takes the
// next step and which pending message (if any) it receives. Policies
// are stateful per-run objects; construct a fresh policy for every
// run and do not share across goroutines.
//
// The engine guarantees nothing beyond what the policy implements; the
// fair policies below realize conditions (4) and (5) of §2.4 (every
// correct process steps infinitely often, every message to a correct
// process is eventually received), while adversarial policies
// deliberately withhold messages the way the Lemma 4.1 proof does.
type Policy interface {
	// NextProcess picks which of the alive processes steps at time t.
	// alive is non-empty and sorted by ID.
	NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID

	// PickMessage picks the index into pending of the message p
	// receives at time t, or -1 for the null message λ. pending holds
	// the buffered messages destined to p in sending order.
	PickMessage(p model.ProcessID, pending []*Message, t model.Time, r *rand.Rand) int
}

// setPolicy is implemented by policies that can read the alive
// processes as a set. nextIn is NextProcess with word holding exactly
// the members of alive; the engine passes the set it already keeps
// (Ω∖F(t), rebuilt only at crashes), so the policy need not rebuild it
// from the list on every step. It is an optimisation only: a run
// behind a wrapper that hides it (MuzzlePolicy, or one that embeds
// only Policy) takes the same schedule through NextProcess.
type setPolicy interface {
	nextIn(alive []model.ProcessID, word model.ProcessSet, t model.Time, r *rand.Rand) model.ProcessID
}

// FairPolicy is the deterministic baseline: round-robin over alive
// processes and oldest-first delivery. Every correct process steps
// every ≤ n ticks and every message is delivered as soon as its
// destination steps, which realizes run conditions (4) and (5) within
// any horizon that outlives the protocol.
type FairPolicy struct {
	cursor int
}

var _ Policy = (*FairPolicy)(nil)

// NextProcess implements Policy by rotating through the alive set.
func (fp *FairPolicy) NextProcess(alive []model.ProcessID, _ model.Time, _ *rand.Rand) model.ProcessID {
	p := alive[fp.cursor%len(alive)]
	fp.cursor++
	return p
}

// PickMessage implements Policy: oldest first, λ only when idle.
func (fp *FairPolicy) PickMessage(_ model.ProcessID, pending []*Message, _ model.Time, _ *rand.Rand) int {
	if len(pending) == 0 {
		return -1
	}
	return 0
}

// RandomFairPolicy explores schedules randomly while staying fair: in
// every "round" each alive process steps exactly once in a shuffled
// order, messages are usually delivered oldest-first but sometimes a
// younger message overtakes or a λ step is inserted, and any message
// older than MaxAge ticks is delivered immediately. Seeded via the
// engine's rng, so runs replay exactly.
type RandomFairPolicy struct {
	// LambdaPct is the probability (in percent) of a λ step despite
	// pending messages. Default 10.
	LambdaPct int
	// ShufflePct is the probability (in percent) that a random pending
	// message is picked instead of the oldest. Default 30.
	ShufflePct int
	// MaxAge forces delivery of messages older than this many ticks.
	// Default 64 ticks, whatever n is (used when zero; the golden
	// digests pin the constant).
	MaxAge model.Time

	// order is the current round's shuffled schedule, order[pos:] the
	// part still to step and rem the same part as a set, so that the
	// per-step "did a process of the remainder crash?" test is one
	// word operation instead of a rescan of the remainder.
	order []model.ProcessID
	pos   int
	rem   model.ProcessSet
}

var (
	_ Policy    = (*RandomFairPolicy)(nil)
	_ setPolicy = (*RandomFairPolicy)(nil)
)

// NextProcess implements Policy with shuffled rounds. It builds the
// alive set from the list (n ORs) for callers that hold only the list;
// the engine calls nextIn with the set it keeps.
func (rp *RandomFairPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	return rp.nextIn(alive, model.NewProcessSet(alive...), t, r)
}

// nextIn implements setPolicy. word is read afresh on every call: the
// engine's set shrinks at crashes and a MuzzlePolicy's filtered list
// grows when the muzzle lifts, so nothing carries over from the last
// call.
func (rp *RandomFairPolicy) nextIn(alive []model.ProcessID, word model.ProcessSet, _ model.Time, r *rand.Rand) model.ProcessID {
	// Rebuild the round order when exhausted or when a process still
	// to step this round is gone (crashes shrink the alive set).
	if rp.pos >= len(rp.order) || !rp.rem.SubsetOf(word) {
		rp.order = append(rp.order[:0], alive...)
		r.Shuffle(len(rp.order), func(i, j int) {
			rp.order[i], rp.order[j] = rp.order[j], rp.order[i]
		})
		rp.pos = 0
		rp.rem = word
	}
	p := rp.order[rp.pos]
	rp.pos++
	rp.rem = rp.rem.Remove(p)
	return p
}

// PickMessage implements Policy.
func (rp *RandomFairPolicy) PickMessage(_ model.ProcessID, pending []*Message, t model.Time, r *rand.Rand) int {
	if len(pending) == 0 {
		return -1
	}
	maxAge := rp.MaxAge
	if maxAge == 0 {
		maxAge = 64
	}
	if t-pending[0].SentAt > maxAge {
		return 0 // fairness forcing: the oldest message must go through
	}
	lambda := rp.LambdaPct
	if lambda == 0 {
		lambda = 10
	}
	if r.Intn(100) < lambda {
		return -1
	}
	shuffle := rp.ShufflePct
	if shuffle == 0 {
		shuffle = 30
	}
	if r.Intn(100) < shuffle {
		return r.Intn(len(pending))
	}
	return 0
}

// DelayPolicy is the adversarial policy of the Lemma 4.1 construction:
// while t < Until, every message from or to a process in Target is
// withheld (run R1 "delays the reception of all messages by p_j").
// Other traffic follows oldest-first delivery. After Until the
// embargo lifts and the policy behaves like FairPolicy.
type DelayPolicy struct {
	// Target is the set of embargoed processes.
	Target model.ProcessSet
	// Until is the first time at which embargoed traffic may flow.
	Until model.Time

	fair FairPolicy
}

var _ Policy = (*DelayPolicy)(nil)

// NextProcess implements Policy via round-robin.
func (dp *DelayPolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	return dp.fair.NextProcess(alive, t, r)
}

// PickMessage implements Policy: oldest non-embargoed message.
func (dp *DelayPolicy) PickMessage(p model.ProcessID, pending []*Message, t model.Time, _ *rand.Rand) int {
	for i, m := range pending {
		if t < dp.Until && (dp.Target.Has(m.From) || dp.Target.Has(m.To)) {
			continue
		}
		return i
	}
	return -1
}

// MuzzlePolicy starves a set of processes of steps until a release
// time: the Lemma 4.1 run R1 requires that "no process p_k, k ≠ i, j,
// takes any step after its last step in the causal past of e, until
// time t". Muzzled processes are simply never scheduled while the
// muzzle holds (the model permits this: only *correct* processes must
// step infinitely often, and the muzzle is finite).
type MuzzlePolicy struct {
	// Inner supplies scheduling for non-muzzled processes.
	Inner Policy
	// Muzzled processes take no steps while t < Until.
	Muzzled model.ProcessSet
	// Until lifts the muzzle.
	Until model.Time
}

var _ Policy = (*MuzzlePolicy)(nil)

// NextProcess implements Policy, filtering muzzled processes.
func (mp *MuzzlePolicy) NextProcess(alive []model.ProcessID, t model.Time, r *rand.Rand) model.ProcessID {
	if t >= mp.Until {
		return mp.Inner.NextProcess(alive, t, r)
	}
	free := make([]model.ProcessID, 0, len(alive))
	for _, p := range alive {
		if !mp.Muzzled.Has(p) {
			free = append(free, p)
		}
	}
	if len(free) == 0 {
		// Everyone is muzzled; the schedule must still advance.
		return mp.Inner.NextProcess(alive, t, r)
	}
	return mp.Inner.NextProcess(free, t, r)
}

// PickMessage implements Policy by delegating to Inner.
func (mp *MuzzlePolicy) PickMessage(p model.ProcessID, pending []*Message, t model.Time, r *rand.Rand) int {
	return mp.Inner.PickMessage(p, pending, t, r)
}
