package sim

import (
	"math/rand"
	"slices"
	"testing"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

func TestFairPolicyRoundRobin(t *testing.T) {
	t.Parallel()
	fp := &FairPolicy{}
	alive := []model.ProcessID{1, 2, 3}
	r := rand.New(rand.NewSource(1))
	var seq []model.ProcessID
	for i := 0; i < 6; i++ {
		seq = append(seq, fp.NextProcess(alive, model.Time(i), r))
	}
	want := []model.ProcessID{1, 2, 3, 1, 2, 3}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("round robin = %v", seq)
		}
	}
}

func TestFairPolicyOldestFirst(t *testing.T) {
	t.Parallel()
	fp := &FairPolicy{}
	r := rand.New(rand.NewSource(1))
	if got := fp.PickMessage(1, nil, 0, r); got != -1 {
		t.Fatalf("empty buffer pick = %d, want -1 (λ)", got)
	}
	pending := []*Message{{ID: 10}, {ID: 11}}
	if got := fp.PickMessage(1, pending, 0, r); got != 0 {
		t.Fatalf("pick = %d, want oldest (0)", got)
	}
}

// TestRandomFairPolicyRoundCoverage: within any window of len(alive)
// scheduling decisions with a stable alive set, every process steps
// exactly once — condition (4) of §2.4 in bounded form.
func TestRandomFairPolicyRoundCoverage(t *testing.T) {
	t.Parallel()
	rp := &RandomFairPolicy{}
	alive := []model.ProcessID{1, 2, 3, 4, 5}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		seen := model.EmptySet()
		for i := 0; i < len(alive); i++ {
			p := rp.NextProcess(alive, model.Time(round*5+i), r)
			if seen.Has(p) {
				t.Fatalf("round %d: %v scheduled twice before others ran", round, p)
			}
			seen = seen.Add(p)
		}
		if seen.Len() != len(alive) {
			t.Fatalf("round %d covered only %v", round, seen)
		}
	}
}

// TestRandomFairPolicyShrinkingAlive: when processes crash mid-round,
// the policy must keep scheduling only alive ones.
func TestRandomFairPolicyShrinkingAlive(t *testing.T) {
	t.Parallel()
	rp := &RandomFairPolicy{}
	r := rand.New(rand.NewSource(3))
	alive := []model.ProcessID{1, 2, 3, 4, 5}
	for i := 0; i < 100; i++ {
		if i == 40 {
			alive = []model.ProcessID{2, 4} // p1, p3, p5 crash
		}
		p := rp.NextProcess(alive, model.Time(i), r)
		ok := false
		for _, q := range alive {
			if q == p {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("step %d: scheduled dead %v", i, p)
		}
	}
}

// TestRandomFairPolicyAgeForcing: a message older than MaxAge must be
// delivered regardless of the λ/shuffle draws — condition (5) of §2.4
// in bounded form.
func TestRandomFairPolicyAgeForcing(t *testing.T) {
	t.Parallel()
	rp := &RandomFairPolicy{LambdaPct: 99, MaxAge: 10}
	r := rand.New(rand.NewSource(5))
	pending := []*Message{{ID: 1, SentAt: 0}}
	forced := 0
	for i := 0; i < 100; i++ {
		if rp.PickMessage(1, pending, 50, r) == 0 {
			forced++
		}
	}
	if forced != 100 {
		t.Fatalf("age forcing fired %d/100 times, want always", forced)
	}
}

// TestFairnessEndToEnd runs a chatty automaton under the random
// policy and audits conditions (4) and (5) on the trace: every
// correct process keeps stepping, and no message to a correct process
// is older than the forcing bound at the end.
func TestFairnessEndToEnd(t *testing.T) {
	t.Parallel()
	pat := model.MustPattern(6).MustCrash(3, 100)
	tr, err := Execute(Config{
		N: 6, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{Delay: 1},
		Pattern: pat, Horizon: 3000, Seed: 11,
		Policy: &RandomFairPolicy{MaxAge: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (4): every correct process stepped in the last 3n ticks.
	for _, p := range pat.Correct().Slice() {
		evs := tr.EventsOf(p)
		if len(evs) == 0 {
			t.Fatalf("%v never stepped", p)
		}
		if last := tr.Events[evs[len(evs)-1]].T; last < tr.MaxTime()-18 {
			t.Fatalf("%v starved: last step at %d of %d", p, last, tr.MaxTime())
		}
	}
	// (5): no stale message to a correct process survived.
	for _, m := range tr.Undelivered {
		if pat.Correct().Has(m.To) && tr.MaxTime()-m.SentAt > 50+model.Time(6) {
			t.Fatalf("stale message %v to correct process (age %d)", m, tr.MaxTime()-m.SentAt)
		}
	}
}

// TestOracleNoiseDeterminism: seeded noisy oracles are pure functions
// of (seed, p, q, t) — two queries agree, and so do two full runs.
func TestOracleNoiseDeterminism(t *testing.T) {
	t.Parallel()
	o1 := fd.EventuallyStrong{GST: 100, Delay: 2, Seed: 9, FalseRate: 30}
	o2 := fd.EventuallyStrong{GST: 100, Delay: 2, Seed: 9, FalseRate: 30}
	pat := model.MustPattern(5).MustCrash(4, 30)
	for tt := model.Time(0); tt < 150; tt++ {
		for p := model.ProcessID(1); p <= 5; p++ {
			if !o1.Output(pat, p, tt).Equal(o2.Output(pat, p, tt)) {
				t.Fatalf("oracle not deterministic at (%v, %d)", p, tt)
			}
		}
	}
	// A different seed must actually change something.
	o3 := fd.EventuallyStrong{GST: 100, Delay: 2, Seed: 10, FalseRate: 30}
	same := true
	for tt := model.Time(0); tt < 100 && same; tt++ {
		for p := model.ProcessID(1); p <= 5; p++ {
			if !o1.Output(pat, p, tt).Equal(o3.Output(pat, p, tt)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

// refRandomFair is RandomFairPolicy's scheduling half as it was before
// the round's remainder became a set: every step it rebuilds the alive
// set and rescans the remainder with subsetOfAlive. It is kept as the
// reference RandomFairPolicy.NextProcess is held to, pick for pick.
type refRandomFair struct {
	order []model.ProcessID
	pos   int
}

func (rp *refRandomFair) NextProcess(alive []model.ProcessID, _ model.Time, r *rand.Rand) model.ProcessID {
	if rp.pos >= len(rp.order) || !subsetOfAlive(rp.order[rp.pos:], alive) {
		rp.order = append(rp.order[:0], alive...)
		r.Shuffle(len(rp.order), func(i, j int) {
			rp.order[i], rp.order[j] = rp.order[j], rp.order[i]
		})
		rp.pos = 0
	}
	p := rp.order[rp.pos]
	rp.pos++
	return p
}

// PickMessage is the unchanged half; it keeps no state.
func (rp *refRandomFair) PickMessage(p model.ProcessID, pending []*Message, t model.Time, r *rand.Rand) int {
	return (&RandomFairPolicy{}).PickMessage(p, pending, t, r)
}

func subsetOfAlive(order []model.ProcessID, alive []model.ProcessID) bool {
	var av model.ProcessSet
	for _, p := range alive {
		av = av.Add(p)
	}
	for _, p := range order {
		if !av.Has(p) {
			return false
		}
	}
	return true
}

// TestRandomFairPolicyMatchesReference drives the set-based fairness
// check — through the list adapter NextProcess and through nextIn with
// the set built beside the list, as the engine keeps it — and the
// rescanning reference from the same rand seed over alive lists that
// shrink (crashes), grow (a muzzle lifting) and swap members at equal
// length, with no promise from one step to the next. Every pick, every
// reshuffle point (pos returns to 1) and every round order must agree.
func TestRandomFairPolicyMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 200; seed++ {
		gen := rand.New(rand.NewSource(seed))
		n := 4 + gen.Intn(61) // 4..64
		member := make([]bool, n+1)
		for p := 1; p <= n; p++ {
			member[p] = true
		}
		size := n
		flip := func(want bool) bool { // flips one random process that is !want to want
			for _, off := range gen.Perm(n) {
				if p := off + 1; member[p] != want {
					member[p] = want
					return true
				}
			}
			return false
		}
		rp, rs, ref := &RandomFairPolicy{}, &RandomFairPolicy{}, &refRandomFair{}
		r1, r2, r3 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		alive := make([]model.ProcessID, 0, n)
		for step := 0; step < 600; step++ {
			switch gen.Intn(12) {
			case 0: // shrink, never to empty
				for k := 1 + gen.Intn(3); k > 0 && size > 1; k-- {
					flip(false)
					size--
				}
			case 1: // grow
				for k := 1 + gen.Intn(3); k > 0; k-- {
					if flip(true) {
						size++
					}
				}
			case 2: // swap at equal length
				if size < n {
					flip(true)
					// take out any member, possibly the one just added
					flip(false)
				}
			}
			alive = alive[:0]
			for p := 1; p <= n; p++ {
				if member[p] {
					alive = append(alive, model.ProcessID(p))
				}
			}
			got := rp.NextProcess(alive, model.Time(step), r1)
			want := ref.NextProcess(alive, model.Time(step), r2)
			if got != want || rp.pos != ref.pos {
				t.Fatalf("seed %d step %d alive %v: picked %v at pos %d, reference %v at pos %d",
					seed, step, alive, got, rp.pos, want, ref.pos)
			}
			if !slices.Equal(rp.order, ref.order) {
				t.Fatalf("seed %d step %d: round order %v, reference %v", seed, step, rp.order, ref.order)
			}
			if rem := model.NewProcessSet(rp.order[rp.pos:]...); !rem.Equal(rp.rem) {
				t.Fatalf("seed %d step %d: remainder set %v, order[pos:] is %v", seed, step, rp.rem, rem)
			}
			word := model.NewProcessSet(alive...)
			if got := rs.nextIn(alive, word, model.Time(step), r3); got != want || rs.pos != ref.pos {
				t.Fatalf("seed %d step %d alive %v: nextIn picked %v at pos %d, reference %v at pos %d",
					seed, step, alive, got, rs.pos, want, ref.pos)
			}
			if !slices.Equal(rs.order, ref.order) {
				t.Fatalf("seed %d step %d: nextIn round order %v, reference %v", seed, step, rs.order, ref.order)
			}
		}
	}
}

// TestRandomFairPolicyUnderMuzzleMatchesReference is the same
// equivalence through the engine: MuzzlePolicy hands its inner policy
// a filtered list that grows back to the full alive list when the
// muzzle lifts, while scripted crashes shrink both.
func TestRandomFairPolicyUnderMuzzleMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 20; seed++ {
		run := func(inner Policy) string {
			tr, err := Execute(Config{
				N: 12, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 1},
				Pattern: model.MustPattern(12).MustCrash(4, 30).MustCrash(9, 95),
				Horizon: 400, Seed: seed,
				Policy: &MuzzlePolicy{Inner: inner, Muzzled: model.NewProcessSet(2, 3, 9, 11), Until: 70},
			})
			if err != nil {
				t.Fatal(err)
			}
			return tr.Digest()
		}
		if got, want := run(&RandomFairPolicy{}), run(&refRandomFair{}); got != want {
			t.Fatalf("seed %d: digest %s under the set-based check, %s under the reference", seed, got[:16], want[:16])
		}
	}
}

// TestPolicyAllocBudgets: the round order is RandomFairPolicy's only
// allocation; once the first round has sized it, picks and reshuffles
// — including after a crash — allocate nothing, through the list
// adapter and through the engine's set path.
func TestPolicyAllocBudgets(t *testing.T) {
	full := make([]model.ProcessID, 64)
	for i := range full {
		full[i] = model.ProcessID(i + 1)
	}
	for _, set := range []bool{false, true} { // set: through nextIn, as the engine picks
		rp, r := &RandomFairPolicy{}, rand.New(rand.NewSource(1))
		alive := full
		pick := func(t model.Time) {
			if set {
				rp.nextIn(alive, model.NewProcessSet(alive...), t, r)
			} else {
				rp.NextProcess(alive, t, r)
			}
		}
		for range alive {
			pick(0)
		}
		step := 0
		if avg := testing.AllocsPerRun(1000, func() {
			if step++; step == 500 {
				alive = alive[:60] // p61..p64 crash mid-round
			}
			pick(model.Time(step))
		}); avg != 0 {
			t.Errorf("set path %v: %.2f allocations per call after the first round, want 0", set, avg)
		}
	}
}

// TestMuzzleAllocBudgets: a muzzle filters the alive list into a scratch
// slice of its own, so a warm reused-context n = 8, 2 000-step run
// behind a MuzzlePolicy that holds to the horizon allocates what its
// unmuzzled processes' broadcasts do, plus the scratch, grown once per
// policy. The budget is the measured 22 plus 10 %; a fresh list per
// step made it 2 018.
func TestMuzzleAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds for the build the benchmark measures")
	}
	const budget = 24
	rc := NewRunContext()
	run := func() {
		if _, err := rc.Execute(Config{
			N: 8, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{Delay: 2}, Horizon: 2000, Seed: 5,
			Policy: &MuzzlePolicy{Inner: &FairPolicy{}, Muzzled: model.NewProcessSet(2, 5), Until: 2001},
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the context
	got := testing.AllocsPerRun(5, run)
	t.Logf("warm reused context, muzzled to the horizon: %.0f allocations", got)
	if got > budget {
		t.Errorf("a muzzled run allocates %.0f times, budget %d", got, budget)
	}
}
