package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"realisticfd/internal/sim"
)

// ActionKind names one verb of the fault-plan IR. The same nine verbs
// drive both backends: the simulator lowers them onto LinkFaults /
// EdgeCut / FailurePattern machinery, the live cluster interprets them
// against real processes and sockets (DESIGN.md §11).
type ActionKind string

const (
	// ActCut severs an edge set from this instant on (until healed).
	ActCut ActionKind = "cut"
	// ActHeal restores severed edges: those of the named ones that are
	// severed, or with nothing named every severed edge.
	ActHeal ActionKind = "heal"
	// ActDrop sets the message-loss rate (percent) from this instant on.
	ActDrop ActionKind = "drop"
	// ActDelay sets the per-message extra-latency bound from this
	// instant on.
	ActDelay ActionKind = "delay"
	// ActKill crashes nodes (SIGKILL live, pattern crash in the sim).
	// Each entry of a spec's crashes field compiles to one.
	ActKill ActionKind = "kill"
	// ActPause freezes nodes (SIGSTOP live; total link isolation in
	// the sim, which captures the detector-visible silence).
	ActPause ActionKind = "pause"
	// ActResume unfreezes paused nodes (SIGCONT).
	ActResume ActionKind = "resume"
	// ActLeave makes nodes depart for good: a clean exit live, a
	// crash in the sim's crash-stop model.
	ActLeave ActionKind = "leave"
	// ActJoin brings nodes into the group mid-run: a real process
	// spawn live; in the sim the node exists from the start but is
	// link-isolated until its join instant.
	ActJoin ActionKind = "join"
)

// PlanAction is one resolved step of a fault-plan timeline. At is in
// plan ticks: the simulator reads them as engine ticks, the live
// interpreter as milliseconds after warmup — the unit mapping that
// lets one spec drive both backends.
type PlanAction struct {
	At    int64
	Kind  ActionKind
	Nodes []int    // kill/pause/resume/leave/join targets
	Edges [][2]int // cut: the selected edges; heal: exactly the severed edges restored, never nil; canonical a<b
	Pct   int      // drop: loss percentage from At on
	Bound int64    // delay: extra-latency bound from At on
}

// FaultPlan is the shared fault-injection IR: a validated, time-sorted
// timeline of typed actions over resolved overlay edges and nodes, in
// which every crash is a kill and every heal names what it restores.
// Both backends consume exactly this — internal/sim lowers it onto the
// LinkFaults machinery, internal/cluster interprets it against live
// processes — so a checked-in spec runs the identical experiment in
// simulation and on a real cluster.
type FaultPlan struct {
	// N is the system size the node IDs were validated against.
	N int
	// Horizon bounds the plan's actions (plan ticks); only a kill
	// compiled from a crash may lie beyond it.
	Horizon int64
	// Actions is the timeline, sorted by At (stable), a crash before a
	// plan action at the same instant.
	Actions []PlanAction
	// Joins maps each mid-run joiner to its join instant.
	Joins map[int]int64
	// Leaves maps each departing node to its leave instant.
	Leaves map[int]int64
	// Kills maps each killed node to its kill instant.
	Kills map[int]int64
	// Overlay is the generated topology the edges were resolved
	// against: every link, A < B, sorted lexicographically.
	Overlay []sim.Edge

	// cutWindows isolate overlay edges (key: Overlay index) cut to heal,
	// pauseWindows nodes (key: ID) pause to resume: non-empty windows in
	// the order they closed, then those open at the end, which run to
	// horizon + 1, in the order they opened.
	cutWindows, pauseWindows []window
}

// window is the isolation of one overlay edge or node over [from, until).
type window struct {
	key         int
	from, until int64
}

// Joiner reports whether node id joins mid-run rather than being
// present from the start.
func (p *FaultPlan) Joiner(id int) bool {
	_, ok := p.Joins[id]
	return ok
}

// ActionSpec is the declarative JSON form of one PlanAction, before
// edge resolution. Kill/pause/resume/leave/join name Nodes; cut gives
// exactly one of Side (a node-set boundary — every overlay edge
// crossing it is severed) and Cut (explicit edges, validated against
// the overlay); heal takes side/cut, restoring those of its edges that
// are severed, or nothing, restoring every severed edge; drop carries
// Pct, delay carries Bound.
type ActionSpec struct {
	At     int64    `json:"at"`
	Action string   `json:"action"`
	Nodes  []int    `json:"nodes,omitempty"`
	Side   []int    `json:"side,omitempty"`
	Cut    [][2]int `json:"cut,omitempty"`
	Pct    int      `json:"pct,omitempty"`
	Bound  int64    `json:"bound,omitempty"`
}

// LiveParams are the live-only knobs of a /v3 spec: everything the
// cluster backend needs beyond what the simulator shares. Zero values
// take the defaults Normalize spells out. Live clusters are not bound by
// the simulator's 64-process set: a spec with a live block may name
// hundreds of nodes, and only Build, the simulator lowering, refuses it.
type LiveParams struct {
	IntervalMs     int               `json:"interval_ms,omitempty"`
	SamplePeriodMs int               `json:"sample_period_ms,omitempty"`
	Fanout         int               `json:"fanout,omitempty"`
	Estimator      LiveEstimatorSpec `json:"estimator,omitzero"`
	WarmupMs       int               `json:"warmup_ms,omitempty"`
	SettleMs       int               `json:"settle_ms,omitempty"`
	BoundMs        int               `json:"bound_ms,omitempty"`
}

// LiveEstimator kinds.
const (
	LiveEstFixed = "fixed"
	LiveEstChen  = "chen"
	LiveEstPhi   = "phi"
)

// LiveEstimatorSpec selects and parameterizes the heartbeat estimator
// of a live run. Kinds: "fixed" (TimeoutMs), "chen" (Window, AlphaMs),
// "phi" (Window, Phi, MinStdDevMs). The zero value means φ-accrual
// with the package defaults.
type LiveEstimatorSpec struct {
	Kind        string  `json:"kind,omitempty"`
	TimeoutMs   int     `json:"timeout_ms,omitempty"`
	Window      int     `json:"window,omitempty"`
	AlphaMs     int     `json:"alpha_ms,omitempty"`
	Phi         float64 `json:"phi,omitempty"`
	MinStdDevMs int     `json:"min_stddev_ms,omitempty"`
}

// Normalize spells out the LiveParams defaults.
func (lp *LiveParams) Normalize() {
	if lp.IntervalMs == 0 {
		lp.IntervalMs = 50
	}
	if lp.SamplePeriodMs == 0 {
		lp.SamplePeriodMs = lp.IntervalMs
	}
	if lp.Estimator.Kind == "" {
		lp.Estimator.Kind = LiveEstPhi
	}
	if lp.WarmupMs == 0 {
		lp.WarmupMs = 1000
	}
	if lp.SettleMs == 0 {
		lp.SettleMs = 2000
	}
}

// Kind returns the action's kind as the IR vocabulary.
func (a ActionSpec) Kind() ActionKind { return ActionKind(a.Action) }

// CompilePlan compiles the spec into the FaultPlan IR: the spec is
// checked, the overlay generated, the crashes merged into the plan as
// kills, and the plan's edges resolved against the overlay, actions
// sorted by time and churn indexed. A spec that declares neither plan
// nor crashes compiles to an empty plan, never nil.
func (s Spec) CompilePlan() (*FaultPlan, error) { return s.compile() }

// compile is the one pass from a spec to its FaultPlan that Validate,
// CompilePlan and Build share. It checks the fields, generates the
// overlay once, and walks the timeline once in stable time order: each
// action is checked, its cut/heal edges resolved, its churn indexed and
// its isolation windows recorded in the same step. The time-ordered
// checks are the plan's semantics: no double kill, resume pairs with
// pause, a joiner is inert before its join, and a crash from the
// crashes field counts as a kill.
func (s Spec) compile() (*FaultPlan, error) {
	if err := s.checkFields(); err != nil {
		return nil, err
	}
	overlay, err := s.Topology.Edges(s.N)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	plan := &FaultPlan{N: s.N, Horizon: s.Horizon, Overlay: overlay}
	if len(s.Plan) == 0 && len(s.Crashes) == 0 {
		return plan, nil
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: plan: %s", s.Name, fmt.Sprintf(format, args...))
	}
	// The timeline: entry k < nc is crash k, entry nc+i plan action i.
	// The stable sort keeps a crash ahead of a plan action at its instant.
	nc := len(s.Crashes)
	at := func(k int) int64 {
		if k < nc {
			return s.Crashes[k].At
		}
		return s.Plan[k-nc].At
	}
	ordered := make([]int, nc+len(s.Plan))
	nodeRefs := nc
	for k := range ordered {
		ordered[k] = k
		if k >= nc {
			nodeRefs += len(s.Plan[k-nc].Nodes)
		}
	}
	slices.SortStableFunc(ordered, func(x, y int) int { return cmp.Compare(at(x), at(y)) })

	for _, k := range ordered {
		if k >= nc && s.Plan[k-nc].Kind() == ActJoin {
			for _, id := range s.Plan[k-nc].Nodes {
				if _, dup := plan.Joins[id]; dup {
					return nil, fail("action[%d]: node %d joins twice", k-nc, id)
				}
				index(&plan.Joins, id, s.Plan[k-nc].At)
			}
		}
	}
	gone := make([]bool, s.N+1) // killed, left or crashing
	for _, c := range s.Crashes {
		// Crashes and plan kills share the crash budget; the walk
		// below rejects a plan kill of an already-crashing process.
		gone[c.Process] = true
		if at, ok := plan.Joins[c.Process]; ok {
			return nil, fail("node %d both joins at %d and crashes via the crashes field", c.Process, at)
		}
	}

	// Every action's node list is carved from one array.
	targets := make([]int, 0, nodeRefs)
	carve := func(ids ...int) []int {
		if len(ids) == 0 {
			return nil
		}
		targets = append(targets, ids...)
		return targets[len(targets)-len(ids) : len(targets) : len(targets)]
	}
	cuts, pauses := isolations{keys: len(overlay)}, isolations{keys: s.N + 1}
	plan.Actions = make([]PlanAction, 0, len(ordered))
	for _, k := range ordered {
		if k < nc {
			c := s.Crashes[k]
			plan.Actions = append(plan.Actions, PlanAction{At: c.At, Kind: ActKill, Nodes: carve(c.Process)})
			index(&plan.Kills, c.Process, c.At)
			continue
		}
		i, a := k-nc, s.Plan[k-nc]
		if a.At < 0 {
			return nil, fail("action[%d]: at = %d must be non-negative", i, a.At)
		}
		if a.At > s.Horizon {
			return nil, fail("action[%d]: at = %d beyond the horizon %d", i, a.At, s.Horizon)
		}
		act := PlanAction{At: a.At, Kind: a.Kind(), Nodes: carve(a.Nodes...), Pct: a.Pct, Bound: a.Bound}
		switch kind := act.Kind; kind {
		case ActKill, ActPause, ActResume, ActLeave, ActJoin:
			if len(a.Nodes) == 0 {
				return nil, fail("action[%d]: %s needs nodes", i, kind)
			}
			if len(a.Side) > 0 || len(a.Cut) > 0 || a.Pct != 0 || a.Bound != 0 {
				return nil, fail("action[%d]: %s takes nodes only", i, kind)
			}
			for _, id := range a.Nodes {
				if id < 1 || id > s.N {
					return nil, fail("action[%d]: node %d outside [1, %d]", i, id, s.N)
				}
				if at, joiner := plan.Joins[id]; joiner && kind != ActJoin && a.At < at {
					return nil, fail("action[%d]: node %d acted on at %d before its join at %d", i, id, a.At, at)
				}
				switch kind {
				case ActKill, ActLeave:
					if gone[id] {
						return nil, fail("action[%d]: node %d is already gone", i, id)
					}
					gone[id] = true
					if kind == ActKill {
						index(&plan.Kills, id, a.At)
					} else {
						index(&plan.Leaves, id, a.At)
					}
				case ActPause:
					if gone[id] {
						return nil, fail("action[%d]: node %d paused after its departure", i, id)
					}
					pauses.begin(id, a.At)
				case ActResume:
					if !pauses.end(id, a.At) {
						return nil, fail("action[%d]: node %d resumed without a pause", i, id)
					}
				}
			}
		case ActCut:
			if (len(a.Side) > 0) == (len(a.Cut) > 0) {
				return nil, fail("action[%d]: cut needs exactly one of side and cut", i)
			}
			if len(a.Nodes) > 0 || a.Pct != 0 || a.Bound != 0 {
				return nil, fail("action[%d]: cut takes side/cut only", i)
			}
			if act.Edges, err = s.resolveEdges(a, overlay); err != nil {
				return nil, fail("action[%d]: %v", i, err)
			}
			cuts.open = slices.Grow(cuts.open, len(act.Edges))
			for _, e := range act.Edges {
				cuts.begin(edgeIndex(overlay, e), a.At)
			}
		case ActHeal:
			if len(a.Nodes) > 0 || a.Pct != 0 || a.Bound != 0 {
				return nil, fail("action[%d]: heal takes side/cut (or nothing)", i)
			}
			named, err := s.resolveEdges(a, overlay)
			if err != nil {
				return nil, fail("action[%d]: %v", i, err)
			}
			if named == nil { // a bare heal names every severed edge, in the order they were cut
				named = make([][2]int, 0, len(cuts.open))
				for i, w := range cuts.open {
					if int(cuts.slot[w.key]) == i+1 {
						named = append(named, pair(overlay[w.key]))
					}
				}
			}
			act.Edges = named[:0] // named is this action's own: keep the severed edges in place
			cuts.closed = slices.Grow(cuts.closed, len(named))
			for _, e := range named {
				if cuts.end(edgeIndex(overlay, e), a.At) {
					act.Edges = append(act.Edges, e)
				}
			}
		case ActDrop:
			if a.Pct < 0 || a.Pct > 100 {
				return nil, fail("action[%d]: drop pct = %d%% outside [0, 100]", i, a.Pct)
			}
			if len(a.Nodes) > 0 || len(a.Side) > 0 || len(a.Cut) > 0 || a.Bound != 0 {
				return nil, fail("action[%d]: drop takes pct only", i)
			}
		case ActDelay:
			if a.Bound < 0 {
				return nil, fail("action[%d]: delay bound = %d must be non-negative", i, a.Bound)
			}
			if len(a.Nodes) > 0 || len(a.Side) > 0 || len(a.Cut) > 0 || a.Pct != 0 {
				return nil, fail("action[%d]: delay takes bound only", i)
			}
		case "":
			return nil, fail("action[%d]: action is required", i)
		default:
			return nil, fail("action[%d]: unknown action %q", i, a.Action)
		}
		plan.Actions = append(plan.Actions, act)
	}
	if s.Live != nil && s.Live.BoundMs > 0 {
		// The bound asserts that no resumed node stays suspected, so the
		// cluster must be able to collect every node that is still alive.
		stuck := 0
		for id := 1; id <= s.N; id++ {
			if pauses.isolated(id) && !gone[id] {
				stuck++
			}
		}
		if stuck > 0 {
			return nil, fail("bound_ms asserts resumed nodes heal, but %d node(s) stay paused at collection", stuck)
		}
	}
	cuts.endAll(s.Horizon + 1) // the windows still open run past the horizon
	pauses.endAll(s.Horizon + 1)
	plan.cutWindows, plan.pauseWindows = cuts.closed, pauses.closed
	return plan, nil
}

// index records a churn instant in one of the plan's node indexes,
// making the map on first use.
func index(m *map[int]int64, id int, at int64) {
	if *m == nil {
		*m = map[int]int64{}
	}
	(*m)[id] = at
}

// pair is the plan's form of an overlay edge.
func pair(e sim.Edge) [2]int { return [2]int{int(e.A), int(e.B)} }

// isolations follows the isolation windows of one kind of key, overlay
// edge indices or node IDs in [0, keys), through the plan walk. slot[key]
// is 1 + the index in open of key's open window, 0 when key is not
// isolated; an entry of open whose key's slot has moved on is closed.
type isolations struct {
	keys   int
	slot   []int32  // made by the first begin
	open   []window // in the order they opened
	closed []window // non-empty windows, in the order they closed
}

// begin isolates key from t on, unless it already is.
func (iso *isolations) begin(key int, t int64) {
	if iso.slot == nil {
		iso.slot = make([]int32, iso.keys)
	}
	if iso.slot[key] == 0 {
		iso.open = append(iso.open, window{key: key, from: t})
		iso.slot[key] = int32(len(iso.open))
	}
}

func (iso *isolations) isolated(key int) bool { return iso.slot != nil && iso.slot[key] != 0 }

// end closes key's window at t and reports whether key was isolated.
func (iso *isolations) end(key int, t int64) bool {
	if !iso.isolated(key) {
		return false
	}
	w := iso.open[iso.slot[key]-1]
	iso.slot[key] = 0
	if w.from < t {
		iso.closed = append(iso.closed, window{key: key, from: w.from, until: t})
	}
	return true
}

// endAll closes every open window at t, in the order they opened.
func (iso *isolations) endAll(t int64) {
	for i, w := range iso.open {
		if int(iso.slot[w.key]) == i+1 {
			iso.end(w.key, t)
		}
	}
}

// resolveEdges checks a cut/heal action's node and edge references
// against the sorted overlay and resolves its edge selection into a
// slice of the action's own: a Side boundary becomes its crossing
// edges in overlay order, an explicit Cut passes through canonicalized
// (a < b), and a bare heal, which selects nothing, resolves to nil —
// compile then hands it every severed edge.
func (s Spec) resolveEdges(a ActionSpec, overlay []sim.Edge) ([][2]int, error) {
	for _, id := range a.Side {
		if id < 1 || id > s.N {
			return nil, fmt.Errorf("side node %d outside [1, %d]", id, s.N)
		}
	}
	if len(a.Cut) > 0 {
		out := make([][2]int, len(a.Cut))
		for i, e := range a.Cut {
			x, y := min(e[0], e[1]), max(e[0], e[1])
			if x < 1 || y > s.N || x == y {
				return nil, fmt.Errorf("bad edge [%d, %d]", e[0], e[1])
			}
			if edgeIndex(overlay, [2]int{x, y}) < 0 {
				return nil, fmt.Errorf("edge [%d, %d] does not exist in the %s topology", e[0], e[1], s.Topology.Kind)
			}
			out[i] = [2]int{x, y}
		}
		return out, nil
	}
	if len(a.Side) == 0 {
		return nil, nil
	}
	inSide := make([]bool, s.N+1)
	for _, id := range a.Side {
		inSide[id] = true
	}
	crossing := 0
	for _, e := range overlay {
		if inSide[e.A] != inSide[e.B] {
			crossing++
		}
	}
	if crossing == 0 {
		return nil, errors.New("side boundary severs no overlay edge")
	}
	out := make([][2]int, 0, crossing)
	for _, e := range overlay {
		if inSide[e.A] != inSide[e.B] {
			out = append(out, pair(e))
		}
	}
	return out, nil
}
