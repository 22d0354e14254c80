package heartbeat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// coreOutput is one thing a core put out — a transition, or a round's
// frame and destinations — with the instant it happened at.
type coreOutput struct {
	At         time.Time
	Transition Transition
	Body       []byte
	Dests      []int
}

// runCoreScript drives a core of cfg through steps random inputs —
// frames as randomFrame makes them, rounds, mute and resume, overlay
// joins (self and existing peers included), at instants a nanosecond to
// minutes apart, with a sweep a nanosecond after each wake that falls
// before the next input, as the driver's timer would — drawn from seed,
// and from tailSeed after the cut-th. It returns everything the core
// put out, in time order, and the instant of the cut-th input.
func runCoreScript(tb testing.TB, cfg GossipConfig, seed, tailSeed int64, steps, cut int) (out []coreOutput, t time.Time) {
	q := newQuietCore(tb, cfg, epoch)
	rng := rand.New(rand.NewSource(seed))
	flush := func() {
		for _, tr := range q.drain() {
			out = append(out, coreOutput{At: tr.At, Transition: tr})
		}
	}
	now := epoch
	for step := 0; step < steps; step++ {
		if step == cut {
			t, rng = now, rand.New(rand.NewSource(tailSeed))
		}
		switch rng.Intn(10) {
		case 0:
			now = now.Add(time.Duration(1 + rng.Int63n(int64(15*time.Minute))))
		case 1:
			now = now.Add(time.Nanosecond)
		default:
			now = now.Add(time.Duration(1 + rng.Int63n(int64(90*time.Second))))
		}
		q.fireUntil(now)
		flush()
		switch r := rng.Intn(20); {
		case r == 0:
			q.setMuted(!q.muted, now)
		case r == 1:
			q.addPeer(1 + rng.Intn(cfg.N))
		case r < 8:
			body, dests := q.roundFrame()
			out = append(out, coreOutput{At: now, Body: body, Dests: slices.Clone(dests)})
		default:
			_ = q.takeAt(randomFrame(rng, q), now)
		}
		flush()
	}
	return out, t
}

// checkCorePrefix is realism (§3.1) on the shipped detector: one script
// run twice must put out the same stream, and a script that differs only
// after the cut-th input must put out the same transitions and frames up
// to that input's instant. It returns the first run's stream.
func checkCorePrefix(tb testing.TB, seed, tailSeed int64, est, cut int) []coreOutput {
	tb.Helper()
	const steps = 300
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(30)
	cfg := GossipConfig{Self: 1 + rng.Intn(n), N: n, Fanout: 2, Seed: seed, NewEstimator: diffEstimators[est%3]}
	cfg.Peers = []int{cfg.Self%n + 1}
	for id := 1; id <= n; id++ {
		if rng.Intn(5) == 0 {
			cfg.Deferred = append(cfg.Deferred, id)
		}
	}
	cut = 1 + cut%(steps-1)
	got, t := runCoreScript(tb, cfg, seed, tailSeed, steps, cut)
	if again, _ := runCoreScript(tb, cfg, seed, tailSeed, steps, cut); !reflect.DeepEqual(got, again) {
		tb.Fatalf("one script, two streams:\n%+v\n%+v", got, again)
	}
	other, _ := runCoreScript(tb, cfg, seed, ^tailSeed, steps, cut)
	upTo := func(out []coreOutput) []coreOutput {
		if i := slices.IndexFunc(out, func(o coreOutput) bool { return o.At.After(t) }); i >= 0 {
			return out[:i]
		}
		return out
	}
	if a, b := upTo(got), upTo(other); !reflect.DeepEqual(a, b) {
		tb.Fatalf("scripts equal up to %v put out different streams up to it:\n%+v\n%+v", t.Sub(epoch), a, b)
	}
	return got
}

// TestCorePrefix runs checkCorePrefix for each estimator, on scripts
// that must exercise every cause.
func TestCorePrefix(t *testing.T) {
	for est, name := range []string{"fixed", "chen", "phi"} {
		t.Run(name, func(t *testing.T) {
			causes := map[Cause]int{}
			for trial := int64(0); trial < 20; trial++ {
				for _, o := range checkCorePrefix(t, trial, trial+100, est, int(trial*37)) {
					if o.Transition.Peer != 0 {
						causes[o.Transition.Cause]++
					}
				}
			}
			if len(causes) != 3 || causes[CauseOwnDeadline] < 20 {
				t.Fatalf("transitions by cause %v: the scripts exercise too little", causes)
			}
		})
	}
}

// FuzzCorePrefix is checkCorePrefix on arbitrary seeds and cuts.
func FuzzCorePrefix(f *testing.F) {
	for est := uint8(0); est < 3; est++ {
		f.Add(int64(est), int64(est)+7, est, uint16(150))
	}
	f.Fuzz(func(t *testing.T, seed, tailSeed int64, est uint8, cut uint16) {
		checkCorePrefix(t, seed, tailSeed, int(est), int(cut))
	})
}
