package experiments

import (
	"fmt"
	"time"

	"realisticfd/internal/consensus"
	"realisticfd/internal/core"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/heartbeat"
	"realisticfd/internal/model"
	"realisticfd/internal/qos"
	"realisticfd/internal/scenario"
	"realisticfd/internal/sim"
	"realisticfd/internal/trb"
)

const expN = 5

// streamAgg runs sc at every seed through the streaming harness and
// folds each run's statistic into an additive aggregate: analyze maps
// one (possibly failed) run to its contribution and combine sums
// contributions. combine must be commutative and associative with the
// zero aggregate as identity — every aggregate below is a bundle of
// counters, so the streamed table is byte-identical to the retained
// Map-then-loop it replaced, at any worker count. Chunk size 1 keeps
// the per-seed parallelism Map had; no trace outlives its run.
func streamAgg[S any](sc harness.Scenario, seeds int, analyze func(harness.Result) S, combine func(S, S) S) S {
	agg, err := harness.Stream(sc, harness.Seeds(seeds), harness.Reducer[S]{
		New:   func() (zero S) { return zero },
		Fold:  func(acc S, r harness.Result) S { return combine(acc, analyze(r)) },
		Merge: combine,
	}, harness.StreamOptions{Workers: Workers(), ChunkSize: 1})
	if err != nil {
		// Without a checkpoint or cancelable context Stream cannot fail.
		panic(fmt.Sprintf("experiments: streaming sweep failed: %v", err))
	}
	return agg
}

// E1Totality audits every decision of the S-based algorithm under
// realistic accurate detectors for the §4.2 totality property
// (Lemma 4.1) — on a clean network and on a delaying, partitioning
// (but eventually delivering) one: the lemma claims totality in every
// run, so link faults must not open a loophole.
func E1Totality(seeds int) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Totality of realistic-detector consensus (Lemma 4.1)",
		Claim:   "every consensus algorithm using a realistic failure detector is total, on clean and faulty links alike",
		Columns: []string{"detector", "network", "crashes", "runs", "decisions", "non-total", "mean t(decide)"},
	}
	oracles := []scenario.OracleSpec{
		{Kind: scenario.OraclePerfect, Delay: 2},
		{Kind: scenario.OracleScribe},
		{Kind: scenario.OracleRealisticStrong, BaseDelay: 1, Seed: 3, JitterMax: 4},
	}
	networks := []struct {
		label string
		plan  []scenario.ActionSpec
	}{
		{"fair", nil},
		{"delay+partition", healingNetSpec()},
	}
	type e1Agg struct {
		runs, decisions, violations int
		sumT                        int64
	}
	allTotal := true
	base := baseSpec("E1")
	for _, o := range oracles {
		for _, net := range networks {
			for _, crashes := range []int{0, 1, 2, 4} {
				s := base
				s.Oracle = o
				if net.plan != nil {
					s.Schema, s.Plan = scenario.SchemaV3, net.plan
				}
				s.Crashes = crashSpecs(crashes, 30, 90, 150, 210)
				sc := scenario.MustBuild(s)
				agg := streamAgg(sc, seeds, func(r harness.Result) e1Agg {
					if r.Err != nil {
						return e1Agg{}
					}
					a := e1Agg{runs: 1}
					for _, d := range r.Trace.Decisions(0) {
						a.decisions++
						a.sumT += int64(d.T)
					}
					a.violations = len(core.TotalityReport(r.Trace, 0))
					return a
				}, func(x, y e1Agg) e1Agg {
					x.runs += y.runs
					x.decisions += y.decisions
					x.violations += y.violations
					x.sumT += y.sumT
					return x
				})
				if agg.violations > 0 {
					allTotal = false
				}
				meanT := int64(0)
				if agg.decisions > 0 {
					meanT = agg.sumT / int64(agg.decisions)
				}
				t.AddRow(sc.Oracle.Name(), net.label, fmt.Sprint(crashes), fmt.Sprint(agg.runs),
					fmt.Sprint(agg.decisions), fmt.Sprint(agg.violations), fmt.Sprint(meanT))
			}
		}
	}
	t.Verdict = fmt.Sprintf("all decisions total: %s (paper: total, by Lemma 4.1)", mark(allTotal))
	return t
}

// E2Adversary replays the Lemma 4.1 proof: the adversary forces any
// non-total run into disagreement via an indistinguishable-prefix
// continuation.
func E2Adversary(seeds int) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Lemma 4.1 adversary: non-total ⇒ disagreement",
		Claim:   "a decision that skips a live process can be extended to violate agreement; with an accurate detector the attack must fail",
		Columns: []string{"seed", "mode", "prefix identical", "missing from chain", "decisions", "disagree"},
	}
	type row struct {
		cells []string
		ok    bool
	}
	rows := harness.SeedMap(harness.Seeds(seeds), Workers(), func(seed int64) row {
		w, err := core.BuildDisagreement(core.AdversaryConfig{Seed: seed})
		if err != nil {
			return row{cells: []string{fmt.Sprint(seed), "noisy ◇S", "-", "-", "-", "error: " + err.Error()}}
		}
		return row{
			cells: []string{fmt.Sprint(seed), "noisy ◇S", mark(w.PrefixIdentical),
				w.NonTotal.Missing.String(),
				fmt.Sprintf("%v:%v vs %v:%v", w.FirstDecision.P, w.FirstDecision.Event.Value, w.VictimDecision.P, w.VictimDecision.Event.Value),
				mark(w.Disagree())},
			ok: w.Disagree() && w.PrefixIdentical,
		}
	})
	ok := true
	for _, r := range rows {
		t.AddRow(r.cells...)
		if !r.ok {
			ok = false
		}
	}
	_, err := core.BuildDisagreement(core.AdversaryConfig{Seed: 0, Accurate: true})
	attackFails := err == core.ErrDecisionTotal
	t.AddRow("0", "accurate P", "-", "-", "-", "attack impossible: "+mark(attackFails))
	if !attackFails {
		ok = false
	}
	t.Verdict = fmt.Sprintf("adversary splits every non-total run and none with accurate detectors: %s", mark(ok))
	return t
}

// E3Reduction measures the T(D⇒P) emulation (Lemma 4.2 /
// Proposition 4.3).
func E3Reduction(seeds int) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "T(D⇒P): consensus sequence emulates a Perfect detector (Lemma 4.2)",
		Claim:   "piggybacked alive-tags + decisions yield strong completeness and strong accuracy",
		Columns: []string{"crashes", "runs", "accurate", "complete", "mean emulation lag (ticks)"},
	}
	type e3Agg struct {
		runs, inaccurate, incomplete int
		lagSum, lagCnt               int64
	}
	ok := true
	base := baseSpec("E3")
	for _, crashes := range []int{0, 1, 2, 4} {
		s := base
		s.Crashes = crashSpecs(crashes, 30, 90, 150, 210)
		sc := scenario.MustBuild(s)
		agg := streamAgg(sc, seeds, func(r harness.Result) e3Agg {
			if r.Err != nil {
				return e3Agg{}
			}
			a := e3Agg{runs: 1}
			pat := r.Trace.Pattern
			h, err := core.ExtractEmulatedHistory(r.Trace)
			if err != nil {
				return a
			}
			if fd.CheckStrongAccuracy(h, pat) != nil {
				a.inaccurate = 1
			}
			if fd.CheckStrongCompleteness(h, pat) != nil {
				a.incomplete = 1
			}
			// Emulation lag: crash → first correct process suspecting
			// it in output(P).
			for _, q := range pat.Faulty().Slice() {
				ct, _ := pat.CrashTime(q)
				best := int64(-1)
				for _, p := range pat.Correct().Slice() {
					if first, ever := h.EverSuspected(p, q); ever {
						if best < 0 || int64(first) < best {
							best = int64(first)
						}
					}
				}
				if best >= 0 {
					a.lagSum += best - int64(ct)
					a.lagCnt++
				}
			}
			return a
		}, func(x, y e3Agg) e3Agg {
			x.runs += y.runs
			x.inaccurate += y.inaccurate
			x.incomplete += y.incomplete
			x.lagSum += y.lagSum
			x.lagCnt += y.lagCnt
			return x
		})
		accurate, complete := agg.inaccurate == 0, agg.incomplete == 0
		if !accurate || !complete {
			ok = false
		}
		lag := "-"
		if agg.lagCnt > 0 {
			lag = fmt.Sprint(agg.lagSum / agg.lagCnt)
		}
		t.AddRow(fmt.Sprint(crashes), fmt.Sprint(agg.runs), mark(accurate), mark(complete), lag)
	}
	t.Verdict = fmt.Sprintf("emulated detector is Perfect in every run: %s (paper: P is the weakest realistic class for consensus)", mark(ok))
	return t
}

// E4TRB verifies Proposition 5.1 in both directions.
func E4TRB(seeds int) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Terminating reliable broadcast ⇔ P (Proposition 5.1)",
		Claim:   "P solves TRB with unbounded crashes; nil deliveries emulate P back",
		Columns: []string{"crashes", "runs", "TRB spec", "TRB⇒P accurate", "TRB⇒P complete"},
	}
	type e4Agg struct {
		runs, specBad, accBad, compBad int
	}
	ok := true
	base := baseSpec("E4")
	waves := base.Protocol.Waves
	for _, crashes := range []int{0, 1, 2, 4} {
		s := base
		s.Crashes = crashSpecs(crashes, 1, 60, 120, 180)
		sc := scenario.MustBuild(s)
		agg := streamAgg(sc, seeds, func(r harness.Result) e4Agg {
			if r.Err != nil {
				return e4Agg{}
			}
			a := e4Agg{runs: 1}
			pat := r.Trace.Pattern
			if trb.CheckAll(r.Trace, waves, nil) != nil {
				a.specBad = 1
			}
			h := core.EmulatePerfectFromTRB(r.Trace)
			if fd.CheckStrongAccuracy(h, pat) != nil {
				a.accBad = 1
			}
			if crashes > 0 && fd.CheckStrongCompleteness(h, pat) != nil {
				a.compBad = 1
			}
			return a
		}, func(x, y e4Agg) e4Agg {
			x.runs += y.runs
			x.specBad += y.specBad
			x.accBad += y.accBad
			x.compBad += y.compBad
			return x
		})
		specOK, accOK, compOK := agg.specBad == 0, agg.accBad == 0, agg.compBad == 0
		if !specOK || !accOK || !compOK {
			ok = false
		}
		t.AddRow(fmt.Sprint(crashes), fmt.Sprint(agg.runs), mark(specOK), mark(accOK), mark(compOK))
	}
	t.Verdict = fmt.Sprintf("TRB solved with unbounded crashes and emulates P back: %s", mark(ok))
	return t
}

// E5Marabout demonstrates §6.1 and §3.2.2.
func E5Marabout(seeds int) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Marabout: consensus with unbounded crashes, but not realistic (§6.1, §3.2.2)",
		Claim:   "the future-reading detector M solves consensus with n−1 crashes; M violates the realism property",
		Columns: []string{"crashes", "runs", "solved", "decided value of", "realism"},
	}
	ok := true
	base := baseSpec("E5")
	for _, crashes := range []int{0, 1, 4} {
		leader := model.ProcessID(crashes + 1) // lowest correct
		props := consensus.DistinctProposals(expN)
		s := base
		s.Crashes = crashSpecs(crashes, 30, 35, 40, 45)
		sc := scenario.MustBuild(s)
		type e5Agg struct{ runs, notSolved int }
		agg := streamAgg(sc, seeds, func(r harness.Result) e5Agg {
			if r.Err != nil {
				return e5Agg{}
			}
			a := e5Agg{runs: 1}
			o, err := consensus.ExtractOutcome(r.Trace, 0)
			if err != nil || o.CheckUniformSpec(r.Trace.Pattern, props) != nil {
				a.notSolved = 1
				return a
			}
			if v, _ := o.DecidedValue(); v != props[leader] {
				a.notSolved = 1
			}
			return a
		}, func(x, y e5Agg) e5Agg {
			x.runs += y.runs
			x.notSolved += y.notSolved
			return x
		})
		solved := agg.notSolved == 0
		if !solved {
			ok = false
		}
		t.AddRow(fmt.Sprint(crashes), fmt.Sprint(agg.runs), mark(solved), leader.String(), "✗ (not realistic)")
	}
	if fd.CheckRealism(fd.Marabout{}, expN, 100, 12) == nil {
		ok = false
	}
	t.Verdict = fmt.Sprintf("M solves consensus trivially yet fails the realism check: %s — the lower bound needs realism", mark(ok))
	return t
}

// E6PartialPerfect separates uniform from correct-restricted
// consensus (§6.2).
func E6PartialPerfect(seeds int) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "P< solves correct-restricted consensus, not uniform (§6.2)",
		Claim:   "uniform consensus is strictly harder than consensus",
		Columns: []string{"scenario", "runs", "correct-restricted", "uniform"},
	}
	props := consensus.DistinctProposals(expN)

	// Benign sweep: correct-restricted agreement must always hold.
	benignOK, runs := true, 0
	benign := baseSpec("E6-benign")
	for _, crashes := range []int{0, 1, 2, 4} {
		s := benign
		s.Crashes = crashSpecs(crashes, 30, 90, 150, 210)
		sc := scenario.MustBuild(s)
		type e6Agg struct{ runs, bad int }
		agg := streamAgg(sc, seeds, func(r harness.Result) e6Agg {
			if r.Err != nil {
				return e6Agg{}
			}
			pat := r.Trace.Pattern
			o, err := consensus.ExtractOutcome(r.Trace, 0)
			good := err == nil && o.CheckTermination(pat) == nil &&
				o.CheckAgreementAmongCorrect(pat) == nil && o.CheckValidity(props) == nil
			a := e6Agg{runs: 1}
			if !good {
				a.bad = 1
			}
			return a
		}, func(x, y e6Agg) e6Agg {
			x.runs += y.runs
			x.bad += y.bad
			return x
		})
		runs += agg.runs
		benignOK = benignOK && agg.bad == 0
	}
	t.AddRow("random crashes", fmt.Sprint(runs), mark(benignOK), "(not claimed)")

	// Adversarial run: p1 decides, its messages are withheld, it
	// crashes — uniform agreement must break while correct-restricted
	// holds.
	sc := scenario.MustBuild(baseSpec("E6-adversarial"))
	type advAgg struct{ notOK, violations int }
	agg := streamAgg(sc, seeds, func(r harness.Result) advAgg {
		if r.Err != nil {
			return advAgg{notOK: 1}
		}
		if _, crashed := r.Trace.Pattern.CrashTime(1); !crashed {
			return advAgg{notOK: 1}
		}
		o, err := consensus.ExtractOutcome(r.Trace, 0)
		if err != nil {
			return advAgg{notOK: 1}
		}
		a := advAgg{}
		if o.CheckAgreementAmongCorrect(r.Trace.Pattern) != nil {
			a.notOK = 1
		}
		if o.CheckUniformAgreement() != nil {
			a.violations = 1
		}
		return a
	}, func(x, y advAgg) advAgg {
		x.notOK += y.notOK
		x.violations += y.violations
		return x
	})
	violations, adOK := agg.violations, agg.notOK == 0
	t.AddRow("p1 isolated+crashed", fmt.Sprint(seeds), mark(adOK), fmt.Sprintf("✗ in %d/%d runs", violations, seeds))
	t.Verdict = fmt.Sprintf("correct-restricted solvable with P< while uniform breaks: %s — uniform is strictly harder", mark(benignOK && adOK && violations > 0))
	return t
}

// E7Collapse verifies §6.3: S ∩ R ⊂ P.
func E7Collapse(seeds int) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Strength vs perfection: S ∩ R ⊂ P (§6.3)",
		Claim:   "a realistic Strong detector never falsely suspects — it is already Perfect",
		Columns: []string{"oracle", "realistic", "false suspicion", "weak accuracy in continuation", "in P"},
	}
	ok := true
	pat := model.MustPattern(expN).MustCrash(2, 40)
	// Realistic accurate oracles: no witness exists; they are in P.
	for _, o := range []fd.Oracle{
		fd.Perfect{Delay: 2},
		fd.RealisticStrong{BaseDelay: 1, Seed: 8, JitterMax: 3},
	} {
		w, err := core.BuildCollapseWitness(o, pat.Clone(), 300)
		inP := err == nil && w == nil
		if !inP {
			ok = false
		}
		t.AddRow(o.Name(), "✓", "none", "-", mark(inP))
	}
	// A noisy realistic detector (claiming S at best) gets caught: the
	// continuation where everyone else crashes breaks weak accuracy.
	caught := harness.SeedMap(harness.Seeds(seeds), Workers(), func(seed int64) bool {
		o := fd.EventuallyStrong{GST: 60, Delay: 1, Seed: uint64(seed), FalseRate: 25}
		w, err := core.BuildCollapseWitness(o, model.MustPattern(expN), 300)
		return err == nil && w != nil && w.WeakAccuracyInFPrime != nil
	})
	found := 0
	for _, c := range caught {
		if c {
			found++
		}
	}
	t.AddRow(fmt.Sprintf("◇S noisy ×%d", seeds), "✓", fmt.Sprintf("%d/%d", found, seeds), "violated", "✗ (not even in S)")
	if found != seeds {
		ok = false
	}
	// The non-realistic Strong detector escapes the argument — but
	// only by failing realism.
	nr := fd.NonRealisticStrong{Delay: 2, FalsePeriod: 10}
	nrCaught := fd.CheckRealism(nr, expN, 100, 12) != nil
	t.AddRow(nr.Name(), mark(!nrCaught), "protected anchor", "-", "✗ (in S \\ R)")
	if !nrCaught {
		ok = false
	}
	t.Verdict = fmt.Sprintf("within realistic detectors the classes S and P collapse: %s", mark(ok))
	return t
}

// E8MajorityCrossover contrasts the S-based (any f) and ◇S-based
// (majority) algorithms as f grows, and hammers the ◇S algorithm's
// safety on a genuinely lossy link (15% drops): liveness may go,
// agreement may not.
func E8MajorityCrossover(seeds int) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Majority crossover: S-flooding vs ◇S rotating coordinator (§1.2)",
		Claim:   "◇S consensus needs a majority of correct processes; S/P do not — and dropping 15% of messages never breaks safety",
		Columns: []string{"f (of 5)", "S-flooding+P", "rotating+◇S", "rotating safety", "lossy rot. safety"},
	}
	ok := true
	baseS := baseSpec("E8-sflooding")
	baseR := baseSpec("E8-rotating")
	baseL := baseSpec("E8-rotating-lossy")
	for f := 0; f <= 4; f++ {
		crashes := crashSpecs(f, 5, 8, 11, 14)
		props := consensus.DistinctProposals(expN)

		sS := baseS
		sS.Crashes = crashes
		scS := scenario.MustBuild(sS)
		addInt := func(x, y int) int { return x + y }
		sBad := streamAgg(scS, seeds, func(r harness.Result) int {
			if r.Err != nil || r.Trace.Stopped != sim.StopCondition {
				return 1
			}
			o, err := consensus.ExtractOutcome(r.Trace, 0)
			if err != nil || o.CheckUniformSpec(r.Trace.Pattern, props) != nil {
				return 1
			}
			return 0
		}, addInt)
		sOK := sBad == 0

		sR := baseR
		sR.Crashes = crashes
		scR := scenario.MustBuild(sR)
		type rotAgg struct{ notLive, notSafe int }
		rot := streamAgg(scR, seeds, func(r harness.Result) rotAgg {
			var a rotAgg
			if !(r.Err == nil && r.Trace.Stopped == sim.StopCondition) {
				a.notLive = 1
			}
			if r.Err == nil {
				if o, err := consensus.ExtractOutcome(r.Trace, 0); err != nil || o.CheckUniformAgreement() != nil {
					a.notSafe = 1
				}
			}
			return a
		}, func(x, y rotAgg) rotAgg {
			x.notLive += y.notLive
			x.notSafe += y.notSafe
			return x
		})
		rotLive, rotSafe := rot.notLive == 0, rot.notSafe == 0

		// Same rotating algorithm on a dropping link: no liveness claim
		// survives a lossy channel without retransmission, but uniform
		// agreement and validity must.
		sL := baseL
		sL.Crashes = crashes
		scL := scenario.MustBuild(sL)
		lossyBad := streamAgg(scL, seeds, func(r harness.Result) int {
			if r.Err != nil {
				return 1
			}
			o, err := consensus.ExtractOutcome(r.Trace, 0)
			if err != nil || o.CheckUniformAgreement() != nil || o.CheckValidity(props) != nil {
				return 1
			}
			return 0
		}, addInt)
		lossySafe := lossyBad == 0

		needMajority := f >= (expN+1)/2
		wantLive := !needMajority
		row := "decides"
		if !rotLive {
			row = "BLOCKS"
		}
		sCell := "decides"
		if !sOK {
			sCell = "FAILS"
		}
		t.AddRow(fmt.Sprint(f), sCell, row, mark(rotSafe), mark(lossySafe))
		if !sOK || rotLive != wantLive || !rotSafe || !lossySafe {
			ok = false
		}
	}
	t.Verdict = fmt.Sprintf("crossover at f = ⌈n/2⌉ = 3 with safety intact, drops included: %s", mark(ok))
	return t
}

// E9QoS sweeps the live heartbeat estimators over a jittery lossy
// link — the engineering face of the accuracy/completeness trade-off —
// and over a 1 s link outage that heals: every estimator must restore
// trust after the partition.
func E9QoS() *Table {
	t := &Table{
		ID:      "E9",
		Title:   "QoS of live heartbeat detectors (Chen-Toueg-Aguilera metrics; §1.3)",
		Claim:   "emulating P live trades detection time against false suspicions; a healed outage must restore trust",
		Columns: []string{"estimator", "T_D (crash)", "mistakes (steady)", "λ_M (/s)", "T_M", "P_A", "mistakes (outage)", "heals"},
	}
	base := qos.ArrivalModel{
		Interval:     20 * time.Millisecond,
		JitterStd:    4 * time.Millisecond,
		DropPct:      10,
		Duration:     10 * time.Second,
		SamplePeriod: 2 * time.Millisecond,
		Seed:         17,
	}
	points := qos.Sweep(base, []qos.Config{
		{Label: "fixed 25ms", Make: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: 25 * time.Millisecond} }},
		{Label: "fixed 50ms", Make: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: 50 * time.Millisecond} }},
		{Label: "fixed 100ms", Make: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: 100 * time.Millisecond} }},
		{Label: "fixed 200ms", Make: func() heartbeat.Estimator { return &heartbeat.FixedTimeout{Timeout: 200 * time.Millisecond} }},
		{Label: "chen α=30ms", Make: func() heartbeat.Estimator { return &heartbeat.Chen{Window: 32, Alpha: 30 * time.Millisecond} }},
		{Label: "chen α=80ms", Make: func() heartbeat.Estimator { return &heartbeat.Chen{Window: 32, Alpha: 80 * time.Millisecond} }},
		{Label: "φ Φ=4", Make: func() heartbeat.Estimator {
			return &heartbeat.PhiAccrual{Window: 128, Threshold: 4, MinStdDev: 2 * time.Millisecond}
		}},
		{Label: "φ Φ=8", Make: func() heartbeat.Estimator {
			return &heartbeat.PhiAccrual{Window: 128, Threshold: 8, MinStdDev: 2 * time.Millisecond}
		}},
		{Label: "φ Φ=12", Make: func() heartbeat.Estimator {
			return &heartbeat.PhiAccrual{Window: 128, Threshold: 12, MinStdDev: 2 * time.Millisecond}
		}},
	}, Workers())
	allDetected, allHeal := true, true
	for _, pt := range points {
		if !pt.Crash.Detected {
			allDetected = false
		}
		if !pt.OutageRecovered {
			allHeal = false
		}
		t.AddRow(pt.Estimator,
			pt.Crash.DetectionTime.Round(time.Millisecond).String(),
			fmt.Sprint(pt.Steady.Mistakes),
			fmt.Sprintf("%.3f", pt.Steady.MistakeRate),
			pt.Steady.AvgMistakeDuration.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f", pt.Steady.QueryAccuracy),
			fmt.Sprint(pt.Outage.Mistakes),
			mark(pt.OutageRecovered),
		)
	}
	t.Verdict = fmt.Sprintf("every configuration detects the crash (%s) and trusts again after the healed outage (%s); tighter ⇒ faster T_D and more mistakes — the realistic frontier",
		mark(allDetected), mark(allHeal))
	return t
}
