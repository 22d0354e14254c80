package scenario

import (
	"fmt"

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

	crashes := s.Crashes
	if !plan.Empty() {
		// Plan kills and leaves are crashes in the simulator's
		// crash-stop model; iterate the timeline (not the index maps)
		// so the pattern order is deterministic.
		crashes = append([]CrashSpec(nil), s.Crashes...)
		for _, a := range plan.Actions {
			if a.Kind == ActKill || a.Kind == ActLeave {
				for _, id := range a.Nodes {
					crashes = append(crashes, CrashSpec{Process: id, At: a.At})
				}
			}
		}
	}
	n := s.N
	sc.Pattern = func() *model.FailurePattern {
		pat := model.MustPattern(n)
		for _, c := range crashes {
			pat.MustCrash(model.ProcessID(c.Process), model.Time(c.At))
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

	sc.Faults = s.buildFaults(plan)

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

// buildFaults lowers the compiled plan onto link faults: a sparse
// overlay contributes one permanent cut of every non-edge, and the
// plan's actions lower onto the same machinery. Returns nil when
// nothing perturbs the network.
func (s Spec) buildFaults(plan *FaultPlan) *sim.LinkFaults {
	var lf sim.LinkFaults
	if missing := missingEdges(s.N, plan.Overlay); len(missing) > 0 {
		// A sparse topology is a permanent severing of its non-links;
		// Until reaches past the horizon so the cut never heals.
		lf.Cuts = append(lf.Cuts, sim.EdgeCut{Edges: missing, From: 0, Until: model.Time(s.Horizon) + 1})
	}
	s.lowerPlan(plan, &lf)
	if !lf.Active() {
		return nil
	}
	return &lf
}

// lowerPlan folds a compiled FaultPlan into the link-fault set: timed
// drop/delay actions become piecewise-constant RateStep/DelayStep
// timelines and cut/heal pairs become EdgeCuts. The churn
// approximations are deliberate: a paused node is modeled as total
// link isolation for the window (its local steps continue, but the
// detector-visible silence is what QoS measures), and a joiner exists
// from tick 0 but is isolated until its join instant — "partitioned
// from birth, healing at the join".
func (s Spec) lowerPlan(plan *FaultPlan, lf *sim.LinkFaults) {
	never := model.Time(s.Horizon) + 1
	type interval struct {
		edge  sim.Edge
		from  model.Time
		until model.Time
	}
	var spans []interval

	// cut/heal pairing: each severed edge stays down until the first
	// heal that names it (or a bare heal), else past the horizon.
	cutStart := map[sim.Edge]model.Time{}
	var activeOrder []sim.Edge
	dropEdge := func(e sim.Edge, until model.Time) {
		spans = append(spans, interval{edge: e, from: cutStart[e], until: until})
		delete(cutStart, e)
		for i, a := range activeOrder {
			if a == e {
				activeOrder = append(activeOrder[:i], activeOrder[i+1:]...)
				break
			}
		}
	}
	for _, a := range plan.Actions {
		switch a.Kind {
		case ActDrop:
			lf.DropSteps = append(lf.DropSteps, sim.RateStep{From: model.Time(a.At), Pct: a.Pct})
		case ActDelay:
			lf.DelaySteps = append(lf.DelaySteps, sim.DelayStep{From: model.Time(a.At), Max: model.Time(a.Bound)})
		case ActCut:
			for _, e := range a.Edges {
				edge := sim.Edge{A: model.ProcessID(e[0]), B: model.ProcessID(e[1])}
				if _, active := cutStart[edge]; !active {
					cutStart[edge] = model.Time(a.At)
					activeOrder = append(activeOrder, edge)
				}
			}
		case ActHeal:
			if a.Edges == nil {
				for len(activeOrder) > 0 {
					dropEdge(activeOrder[0], model.Time(a.At))
				}
				continue
			}
			for _, e := range a.Edges {
				edge := sim.Edge{A: model.ProcessID(e[0]), B: model.ProcessID(e[1])}
				if _, active := cutStart[edge]; active {
					dropEdge(edge, model.Time(a.At))
				}
			}
		}
	}
	for len(activeOrder) > 0 {
		dropEdge(activeOrder[0], never)
	}

	// pause/resume: isolate the node's incident edges for the window.
	incident := func(id int) []sim.Edge {
		var out []sim.Edge
		p := model.ProcessID(id)
		for _, e := range plan.Overlay {
			if e.A == p || e.B == p {
				out = append(out, e)
			}
		}
		return out
	}
	pausedAt := map[int]model.Time{}
	var pausedOrder []int
	for _, a := range plan.Actions {
		switch a.Kind {
		case ActPause:
			for _, id := range a.Nodes {
				if _, ok := pausedAt[id]; !ok {
					pausedAt[id] = model.Time(a.At)
					pausedOrder = append(pausedOrder, id)
				}
			}
		case ActResume:
			for _, id := range a.Nodes {
				from, ok := pausedAt[id]
				if !ok {
					continue
				}
				for _, e := range incident(id) {
					spans = append(spans, interval{edge: e, from: from, until: model.Time(a.At)})
				}
				delete(pausedAt, id)
				for i, p := range pausedOrder {
					if p == id {
						pausedOrder = append(pausedOrder[:i], pausedOrder[i+1:]...)
						break
					}
				}
			}
		}
	}
	for _, id := range pausedOrder {
		for _, e := range incident(id) {
			spans = append(spans, interval{edge: e, from: pausedAt[id], until: never})
		}
	}

	// join: birth isolation [0, joinAt) of the joiner's incident edges.
	for _, a := range plan.Actions {
		if a.Kind != ActJoin {
			continue
		}
		for _, id := range a.Nodes {
			if a.At == 0 {
				continue // joining at tick 0 is just being present
			}
			for _, e := range incident(id) {
				spans = append(spans, interval{edge: e, from: 0, until: model.Time(a.At)})
			}
		}
	}

	// Group same-window spans into one EdgeCut each, in emission order.
	type window struct{ from, until model.Time }
	cutIdx := map[window]int{}
	for _, sp := range spans {
		if sp.until <= sp.from {
			continue
		}
		w := window{from: sp.from, until: sp.until}
		i, ok := cutIdx[w]
		if !ok {
			i = len(lf.Cuts)
			cutIdx[w] = i
			lf.Cuts = append(lf.Cuts, sim.EdgeCut{From: w.from, Until: w.until})
		}
		lf.Cuts[i].Edges = append(lf.Cuts[i].Edges, sp.edge)
	}
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
