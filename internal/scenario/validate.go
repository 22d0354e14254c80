package scenario

import "fmt"

// Kind names accepted by the spec. Collected as constants so the
// builder, the validator and the docs cannot drift apart.
const (
	ProtocolSFlooding    = "sflooding"
	ProtocolRotating     = "rotating"
	ProtocolMarabout     = "marabout"
	ProtocolPartialOrder = "partial-order"
	ProtocolTRB          = "trb"
	ProtocolReduction    = "reduction"
	ProtocolAbcast       = "abcast"
	ProtocolBusy         = "busy"

	OraclePerfect           = "perfect"
	OracleScribe            = "scribe"
	OracleMarabout          = "marabout"
	OraclePartiallyPerfect  = "partially-perfect"
	OracleRealisticStrong   = "realistic-strong"
	OracleEventuallyStrong  = "eventually-strong"
	OracleEventuallyPerfect = "eventually-perfect"

	TopologyComplete = "complete"
	TopologyRing     = "ring"
	TopologyTree     = "tree"
	TopologyRandom   = "random"
	TopologyChord    = "chord"

	PolicyRandomFair = "random-fair"
	PolicyFair       = "fair"
	PolicyDelay      = "delay"

	StopNone         = "none"
	StopDecided      = "decided"
	StopAllDelivered = "all-delivered"

	HookCrashOnDecide = "crash-on-decide"
)

// SchemaV3 is the spec schema that adds the fault-plan IR fields (Plan,
// Live). The empty schema is the original v2 format without link
// faults; every such document is a valid v3 document with no plan.
const SchemaV3 = "fdspec/v3"

// Validate checks every constraint a well-formed spec must satisfy; it
// reports the first violation. It compiles the spec and discards the
// plan, so a spec it accepts also compiles and, at n ≤ 64, builds.
// Parse validates automatically; call it directly on specs assembled
// in Go.
func (s Spec) Validate() error {
	_, err := s.compile()
	return err
}

// checkFields checks the constraints that need neither the overlay nor
// the plan walk.
func (s Spec) checkFields() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	switch s.Schema {
	case "", SchemaV3:
	default:
		return fail("schema: unknown %q (want %q or empty)", s.Schema, SchemaV3)
	}
	if s.Schema != SchemaV3 && (len(s.Plan) > 0 || s.Live != nil) {
		return fail("plan/live fields require schema %q", SchemaV3)
	}
	// No upper bound here: a live cluster may run hundreds of nodes, and
	// Build, the simulator lowering, refuses more than its process set.
	if s.N < 1 {
		return fail("n = %d must be ≥ 1", s.N)
	}
	if s.Live != nil && s.N < 2 {
		return fail("live: n = %d must be ≥ 2", s.N)
	}
	if s.Horizon <= 0 {
		return fail("horizon = %d must be positive", s.Horizon)
	}
	if s.Seeds.To < s.Seeds.From {
		return fail("seeds: inverted range [%d, %d)", s.Seeds.From, s.Seeds.To)
	}

	switch s.Protocol.Kind {
	case ProtocolSFlooding, ProtocolRotating, ProtocolMarabout, ProtocolPartialOrder, ProtocolBusy:
	case ProtocolTRB:
		if s.Protocol.Waves < 1 {
			return fail("protocol trb: waves = %d must be ≥ 1", s.Protocol.Waves)
		}
	case ProtocolReduction, ProtocolAbcast:
		if s.Protocol.MaxInstances < 1 {
			return fail("protocol %s: max_instances = %d must be ≥ 1", s.Protocol.Kind, s.Protocol.MaxInstances)
		}
	case "":
		return fail("protocol: kind is required")
	default:
		return fail("protocol: unknown kind %q", s.Protocol.Kind)
	}

	switch s.Oracle.Kind {
	case OraclePerfect, OracleScribe, OracleMarabout, OraclePartiallyPerfect, OracleRealisticStrong:
		if s.Oracle.PerSeed {
			return fail("oracle %s: per_seed applies only to the eventually-* oracles", s.Oracle.Kind)
		}
	case OracleEventuallyStrong, OracleEventuallyPerfect:
		if s.Oracle.FalseRate < 0 || s.Oracle.FalseRate > 100 {
			return fail("oracle %s: false_rate = %d%% outside [0, 100]", s.Oracle.Kind, s.Oracle.FalseRate)
		}
	case "":
		return fail("oracle: kind is required")
	default:
		return fail("oracle: unknown kind %q", s.Oracle.Kind)
	}
	if s.Oracle.Delay < 0 || s.Oracle.BaseDelay < 0 || s.Oracle.JitterMax < 0 || s.Oracle.GST < 0 {
		return fail("oracle %s: latencies must be non-negative", s.Oracle.Kind)
	}

	seen := make(map[int]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		if c.Process < 1 || c.Process > s.N {
			return fail("crashes: process %d outside [1, %d]", c.Process, s.N)
		}
		if seen[c.Process] {
			return fail("crashes: process %d crashes twice", c.Process)
		}
		seen[c.Process] = true
		if c.At < 0 {
			return fail("crashes: process %d crashes at negative time %d", c.Process, c.At)
		}
	}

	if lp := s.Live; lp != nil {
		if lp.IntervalMs < 0 || lp.SamplePeriodMs < 0 || lp.WarmupMs < 0 || lp.SettleMs < 0 || lp.BoundMs < 0 {
			return fail("live: durations must be non-negative")
		}
		if lp.Fanout < 0 {
			return fail("live: fanout = %d must be non-negative", lp.Fanout)
		}
		switch lp.Estimator.Kind {
		case LiveEstFixed:
			if lp.Estimator.TimeoutMs < 1 {
				return fail("live: estimator fixed: timeout_ms = %d must be ≥ 1", lp.Estimator.TimeoutMs)
			}
		case LiveEstChen, LiveEstPhi, "":
		default:
			return fail("live: estimator: unknown kind %q", lp.Estimator.Kind)
		}
		if lp.Estimator.Window < 0 || lp.Estimator.TimeoutMs < 0 || lp.Estimator.AlphaMs < 0 ||
			lp.Estimator.Phi < 0 || lp.Estimator.MinStdDevMs < 0 {
			return fail("live: estimator parameters must be non-negative")
		}
	}

	switch s.Policy.Kind {
	case PolicyRandomFair, PolicyFair, "": // "" normalizes to random-fair
	case PolicyDelay:
		if len(s.Policy.Target) == 0 {
			return fail("policy delay: target is required")
		}
		for _, id := range s.Policy.Target {
			if id < 1 || id > s.N {
				return fail("policy delay: target process %d outside [1, %d]", id, s.N)
			}
		}
	default:
		return fail("policy: unknown kind %q", s.Policy.Kind)
	}

	switch s.Stop.Kind {
	case StopNone, "": // "" normalizes to none
	case StopDecided:
		if s.Stop.Instance < 0 {
			return fail("stop decided: instance = %d must be ≥ 0", s.Stop.Instance)
		}
	case StopAllDelivered:
		if s.Protocol.Kind != ProtocolTRB {
			return fail("stop all-delivered requires the trb protocol, not %q", s.Protocol.Kind)
		}
	default:
		return fail("stop: unknown kind %q", s.Stop.Kind)
	}

	if h := s.AfterStep; h != nil {
		switch h.Kind {
		case HookCrashOnDecide:
			if h.Process < 1 || h.Process > s.N {
				return fail("after_step crash-on-decide: process %d outside [1, %d]", h.Process, s.N)
			}
		default:
			return fail("after_step: unknown kind %q", h.Kind)
		}
	}
	return nil
}
