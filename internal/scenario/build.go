package scenario

import (
	"fmt"
	"slices"

	"realisticfd/internal/abcast"
	"realisticfd/internal/consensus"
	"realisticfd/internal/core"
	"realisticfd/internal/fd"
	"realisticfd/internal/harness"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
	"realisticfd/internal/trb"
)

// Build compiles the spec into a runnable harness.Scenario: factories
// for the stateful per-run pieces, the compiled plan and its overlay
// lowered onto link faults, and the spec's ConfigDigest attached so
// streaming checkpoints key on the full configuration. The spec is
// compiled once, which validates it; a spec that came through
// Parse/Load fails here only if it is larger than the simulator's
// process set.
func (s Spec) Build() (harness.Scenario, error) {
	s.normalize()
	plan, err := s.compile()
	if err != nil {
		return harness.Scenario{}, err
	}
	if s.N > model.MaxProcesses {
		return harness.Scenario{}, fmt.Errorf("scenario %q: n = %d exceeds the simulator's %d-process cap", s.Name, s.N, model.MaxProcesses)
	}
	digest, err := s.ConfigDigest()
	if err != nil {
		return harness.Scenario{}, err
	}
	sc := harness.Scenario{
		Name:         s.Name,
		ConfigDigest: digest,
		N:            s.N,
		Horizon:      model.Time(s.Horizon),
	}

	// Kills (the crashes field's among them) and leaves are crashes in
	// the simulator's crash-stop model.
	n := s.N
	sc.Pattern = func() *model.FailurePattern {
		pat := model.MustPattern(n)
		for _, a := range plan.Actions {
			if a.Kind == ActKill || a.Kind == ActLeave {
				for _, id := range a.Nodes {
					pat.MustCrash(model.ProcessID(id), model.Time(a.At))
				}
			}
		}
		return pat
	}

	switch o := s.Oracle; o.Kind {
	case OraclePerfect:
		sc.Oracle = fd.Perfect{Delay: model.Time(o.Delay)}
	case OracleScribe:
		sc.Oracle = fd.Scribe{}
	case OracleMarabout:
		sc.Oracle = fd.Marabout{}
	case OraclePartiallyPerfect:
		sc.Oracle = fd.PartiallyPerfect{Delay: model.Time(o.Delay)}
	case OracleRealisticStrong:
		sc.Oracle = fd.RealisticStrong{BaseDelay: model.Time(o.BaseDelay), Seed: o.Seed, JitterMax: model.Time(o.JitterMax)}
	case OracleEventuallyStrong, OracleEventuallyPerfect:
		eventually := func(seed uint64) fd.Oracle {
			if o.Kind == OracleEventuallyPerfect {
				return fd.EventuallyPerfect{GST: model.Time(o.GST), Delay: model.Time(o.Delay), Seed: seed, FalseRate: o.FalseRate}
			}
			return fd.EventuallyStrong{GST: model.Time(o.GST), Delay: model.Time(o.Delay), Seed: seed, FalseRate: o.FalseRate}
		}
		if o.PerSeed {
			sc.OracleFor = func(seed int64) fd.Oracle { return eventually(uint64(seed)) }
		} else {
			sc.Oracle = eventually(o.Seed)
		}
	}

	switch p := s.Protocol; p.Kind {
	case ProtocolSFlooding:
		sc.Automaton = consensus.SFlooding{Proposals: consensus.DistinctProposals(n)}
	case ProtocolRotating:
		sc.Automaton = consensus.Rotating{Proposals: consensus.DistinctProposals(n)}
	case ProtocolMarabout:
		sc.Automaton = consensus.MaraboutConsensus{Proposals: consensus.DistinctProposals(n)}
	case ProtocolPartialOrder:
		sc.Automaton = consensus.PartialOrder{Proposals: consensus.DistinctProposals(n)}
	case ProtocolTRB:
		sc.Automaton = trb.Broadcast{Waves: p.Waves}
	case ProtocolReduction:
		sc.Automaton = core.Reduction{
			Proposals:    consensus.DistinctProposals(n),
			MaxInstances: p.MaxInstances,
		}
	case ProtocolAbcast:
		sc.Automaton = abcast.Atomic{ToBroadcast: AbcastScript(n), MaxInstances: p.MaxInstances}
	case ProtocolBusy:
		sc.Automaton = BusyAutomaton{}
	}

	switch p := s.Policy; p.Kind {
	case PolicyRandomFair:
		sc.Policy = func() sim.Policy { return &sim.RandomFairPolicy{} }
	case PolicyFair:
		sc.Policy = func() sim.Policy { return &sim.FairPolicy{} }
	case PolicyDelay:
		target := model.NewProcessSet()
		for _, id := range p.Target {
			target = target.Add(model.ProcessID(id))
		}
		until := model.Time(p.Until)
		sc.Policy = func() sim.Policy {
			return &sim.DelayPolicy{Target: target, Until: until}
		}
	}

	sc.Faults = lowerPlan(plan)

	switch st := s.Stop; st.Kind {
	case StopNone:
	case StopDecided:
		instance := st.Instance
		sc.StopWhen = func() func(*sim.Trace) bool { return sim.CorrectDecided(instance) }
	case StopAllDelivered:
		waves := s.Protocol.Waves
		sc.StopWhen = func() func(*sim.Trace) bool { return trb.AllDelivered(waves) }
	}

	if h := s.AfterStep; h != nil && h.Kind == HookCrashOnDecide {
		victim := model.ProcessID(h.Process)
		sc.AfterStep = func() func(*sim.Run, *sim.EventRecord) {
			crashed := false // per-run adversary state
			return func(r *sim.Run, ev *sim.EventRecord) {
				if crashed || ev.P != victim {
					return
				}
				for _, pe := range ev.Events {
					if pe.Kind == sim.KindDecide {
						crashed = true
						_ = r.Crash(victim)
					}
				}
			}
		}
	}
	return sc, nil
}

// AbcastScript is the broadcast load of the "abcast" protocol: every
// process broadcasts two updates.
func AbcastScript(n int) map[model.ProcessID][]string {
	script := make(map[model.ProcessID][]string, n)
	for p := 1; p <= n; p++ {
		id := model.ProcessID(p)
		script[id] = []string{
			fmt.Sprintf("%v/update-0", id),
			fmt.Sprintf("%v/update-1", id),
		}
	}
	return script
}

// MustBuild is Build for specs known statically valid (embedded
// testdata, specs assembled by trusted code); it panics on error.
func MustBuild(s Spec) harness.Scenario {
	sc, err := s.Build()
	if err != nil {
		panic(err)
	}
	return sc
}

// lowerPlan lowers the compiled plan onto link faults, nil when nothing
// perturbs the network: a sparse overlay is one permanent cut of every
// non-edge, drop/delay actions become RateStep/DelayStep timelines, and
// each distinct isolation window becomes one EdgeCut of the incident
// overlay edges, in the order first seen: cut edges, paused nodes,
// joiners. The churn approximations are deliberate: a paused node is
// modeled as total link isolation for the window (the detector-visible
// silence is what QoS measures), and a joiner exists from tick 0 but is
// isolated until its join — "partitioned from birth, healing at the join".
func lowerPlan(plan *FaultPlan) *sim.LinkFaults {
	var lf sim.LinkFaults
	if missing := missingEdges(plan.N, plan.Overlay); len(missing) > 0 {
		// A sparse topology is a permanent severing of its non-links;
		// Until reaches past the horizon so the cut never heals.
		lf.Cuts = append(lf.Cuts, sim.EdgeCut{Edges: missing, From: 0, Until: model.Time(plan.Horizon) + 1})
	}
	for _, a := range plan.Actions {
		switch a.Kind {
		case ActDrop:
			lf.DropSteps = append(lf.DropSteps, sim.RateStep{From: model.Time(a.At), Pct: a.Pct})
		case ActDelay:
			lf.DelaySteps = append(lf.DelaySteps, sim.DelayStep{From: model.Time(a.At), Max: model.Time(a.Bound)})
		}
	}
	first := len(lf.Cuts) // the plan's windows start after the sparse overlay's cut
	isolate := func(e sim.Edge, from, until int64) {
		w := sim.EdgeCut{From: model.Time(from), Until: model.Time(until)}
		i := first + slices.IndexFunc(lf.Cuts[first:], func(c sim.EdgeCut) bool { return c.From == w.From && c.Until == w.Until })
		if i < first {
			i, lf.Cuts = len(lf.Cuts), append(lf.Cuts, w)
		}
		lf.Cuts[i].Edges = append(lf.Cuts[i].Edges, e)
	}
	isolateNode := func(id int, from, until int64) {
		p := model.ProcessID(id)
		for _, e := range plan.Overlay {
			if e.A == p || e.B == p {
				isolate(e, from, until)
			}
		}
	}
	for _, w := range plan.cutWindows {
		isolate(plan.Overlay[w.key], w.from, w.until)
	}
	for _, w := range plan.pauseWindows {
		isolateNode(w.key, w.from, w.until)
	}
	for _, a := range plan.Actions {
		if a.Kind == ActJoin && a.At > 0 { // joining at tick 0 is just being present
			for _, id := range a.Nodes {
				isolateNode(id, 0, a.At)
			}
		}
	}
	if !lf.Active() {
		return nil
	}
	return &lf
}

// missingEdges returns the complement of the sorted overlay: the
// pairs of processes with no link between them, in the same order.
func missingEdges(n int, overlay []sim.Edge) []sim.Edge {
	missing := make([]sim.Edge, 0, n*(n-1)/2-len(overlay))
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			e := sim.Edge{A: model.ProcessID(a), B: model.ProcessID(b)}
			if len(overlay) > 0 && overlay[0] == e {
				overlay = overlay[1:]
				continue
			}
			missing = append(missing, e)
		}
	}
	return missing
}
