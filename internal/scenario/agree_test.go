package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// checkLoweringsAgree holds the two lowerings of one compiled plan to
// the same isolation at every tick of [0, horizon]. It replays the
// plan's actions the way the live interpreter executes them — a cut
// severs its edges, a heal restores its edges (each of them severed:
// the compiler resolves every heal), a pause freezes a node,
// a joiner is absent until its join — and requires that the sim's
// link faults sever exactly those overlay edges: a cut one, or one
// with a paused or not-yet-joined endpoint.
func checkLoweringsAgree(t testing.TB, plan *FaultPlan, lf *sim.LinkFaults) {
	t.Helper()
	index := make(map[sim.Edge]int, len(plan.Overlay))
	for i, e := range plan.Overlay {
		index[e] = i
	}
	lookup := func(e [2]int) int {
		i, ok := index[sim.Edge{A: model.ProcessID(e[0]), B: model.ProcessID(e[1])}]
		if !ok {
			t.Fatalf("plan edge %v is not in the overlay", e)
		}
		return i
	}
	// Each cut's edges as overlay indices; non-links are not plan state.
	var cuts [][]int
	if lf != nil {
		for _, c := range lf.Cuts {
			var in []int
			for _, e := range c.Edges {
				if i, ok := index[e]; ok {
					in = append(in, i)
				}
			}
			cuts = append(cuts, in)
		}
	}
	severed := make([]bool, len(plan.Overlay))
	paused := make([]bool, plan.N+1)
	absent := make([]bool, plan.N+1)
	for _, a := range plan.Actions {
		if a.Kind == ActJoin {
			for _, id := range a.Nodes {
				absent[id] = true
			}
		}
	}
	lowered := make([]bool, len(plan.Overlay))
	next := 0
	for tick := int64(0); tick <= plan.Horizon; tick++ {
		for ; next < len(plan.Actions) && plan.Actions[next].At <= tick; next++ {
			a := plan.Actions[next]
			switch a.Kind {
			case ActCut:
				for _, e := range a.Edges {
					severed[lookup(e)] = true
				}
			case ActHeal:
				if a.Edges == nil {
					t.Fatalf("heal at %d left unresolved (nil edges)", a.At)
				}
				for _, e := range a.Edges {
					i := lookup(e)
					if !severed[i] {
						t.Fatalf("heal at %d restores %v, which is not severed", a.At, e)
					}
					severed[i] = false
				}
			case ActPause:
				for _, id := range a.Nodes {
					paused[id] = true
				}
			case ActResume:
				for _, id := range a.Nodes {
					paused[id] = false
				}
			case ActJoin:
				for _, id := range a.Nodes {
					absent[id] = false
				}
			}
		}
		clear(lowered)
		for ci, c := range cuts {
			if lf.Cuts[ci].From <= model.Time(tick) && model.Time(tick) < lf.Cuts[ci].Until {
				for _, i := range c {
					lowered[i] = true
				}
			}
		}
		for i, e := range plan.Overlay {
			want := severed[i] || paused[e.A] || paused[e.B] || absent[e.A] || absent[e.B]
			if lowered[i] != want {
				t.Fatalf("tick %d: edge %v isolated=%v by the plan replay, %v by the sim lowering (%s)", tick, e, want, lowered[i], lf)
			}
		}
	}
}

// healingNetPlan is E1's healingNetSpec (internal/experiments): bounded
// extra delay plus a side partition that a bare heal restores.
func healingNetPlan() []ActionSpec {
	return []ActionSpec{
		{At: 0, Action: "delay", Bound: 6},
		{At: 40, Action: "cut", Side: []int{1, 2}},
		{At: 400, Action: "heal"},
	}
}

// randomPlanSpec draws a small /v3 spec whose plan mixes every
// timeline verb — side and edge cuts, bare and named heals, pauses
// with and without their resume, joins, kills, leaves, drop and delay,
// sometimes beside a crashes entry — over a complete, ring or chord
// overlay of 4 to 12 nodes. Many draws are invalid; those pin the
// compiler's error text instead.
func randomPlanSpec(r *rand.Rand) Spec {
	kinds := []string{TopologyComplete, TopologyRing, TopologyChord}
	n := 4 + r.IntN(9)
	horizon := int64(40 + r.IntN(160))
	s := Spec{
		Schema:   SchemaV3,
		Name:     "random-plan",
		N:        n,
		Horizon:  horizon,
		Seeds:    SeedSpec{From: 0, To: 1},
		Protocol: ProtocolSpec{Kind: ProtocolBusy},
		Oracle:   OracleSpec{Kind: OraclePerfect, Delay: 2},
		Topology: TopologySpec{Kind: kinds[r.IntN(len(kinds))]},
	}
	overlay, err := s.Topology.Edges(n)
	if err != nil {
		panic(err)
	}
	node := func() int { return 1 + r.IntN(n) }
	side := func() []int {
		out := []int{node()}
		for r.IntN(2) == 0 {
			out = append(out, node())
		}
		return out
	}
	edges := func() [][2]int {
		var out [][2]int
		for k := 1 + r.IntN(3); k > 0; k-- {
			e := overlay[r.IntN(len(overlay))]
			if r.IntN(2) == 0 {
				out = append(out, [2]int{int(e.B), int(e.A)})
			} else {
				out = append(out, [2]int{int(e.A), int(e.B)})
			}
		}
		return out
	}
	for k := 1 + r.IntN(14); k > 0; k-- {
		a := ActionSpec{At: r.Int64N(horizon + 1)}
		switch r.IntN(14) {
		case 0, 1:
			a.Action, a.Side = "cut", side()
		case 2, 3:
			a.Action, a.Cut = "cut", edges()
		case 4, 5:
			a.Action = "heal"
		case 6:
			a.Action, a.Side = "heal", side()
		case 7:
			a.Action, a.Cut = "heal", edges()
		case 8:
			a.Action, a.Nodes = "pause", []int{node()}
		case 9:
			a.Action, a.Nodes = "resume", []int{node()}
		case 10:
			a.Action, a.Nodes = "join", []int{node()}
		case 11:
			a.Action, a.Pct = "drop", r.IntN(40)
		case 12:
			a.Action, a.Bound = "delay", r.Int64N(10)
		case 13:
			a.Action, a.Nodes = []string{"kill", "leave"}[r.IntN(2)], []int{node()}
		}
		s.Plan = append(s.Plan, a)
	}
	if r.IntN(4) == 0 {
		s.Crashes = []CrashSpec{{Process: node(), At: r.Int64N(horizon + 40)}}
	}
	return s
}

// agreementInputs is every input of the lowering-agreement test, in a
// fixed order: the checked-in specs that carry a plan, E1's healing
// network, and 6 000 seeded random plans.
func agreementInputs(t *testing.T) []Spec {
	var specs []Spec
	for _, dir := range []string{"../../examples/scenarios", "../experiments/testdata/scenarios", "../../benchmark/specs"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Plan) > 0 {
				specs = append(specs, s)
			}
		}
	}
	if len(specs) != 7 {
		t.Fatalf("found %d checked-in specs with a plan, want 7", len(specs))
	}
	e1, err := Load("../experiments/testdata/scenarios/E1.json")
	if err != nil {
		t.Fatal(err)
	}
	e1.Schema, e1.Plan = SchemaV3, healingNetPlan()
	e1.Crashes = []CrashSpec{{Process: 1, At: 30}, {Process: 2, At: 90}}
	specs = append(specs, e1)
	r := rand.New(rand.NewPCG(43, 7))
	for range 6000 {
		specs = append(specs, randomPlanSpec(r))
	}
	return specs
}

// TestLoweringsAgree holds the simulator's LinkFaults and the live
// interpreter's replay of one compiled plan to the same severed edges
// at every tick, and pins what both lowerings produce: the hash covers
// each input's LinkFaults rendering, or its compile error.
func TestLoweringsAgree(t *testing.T) {
	t.Parallel()
	h := sha256.New()
	valid := 0
	for i, s := range agreementInputs(t) {
		plan, err := s.CompilePlan()
		if err != nil {
			fmt.Fprintf(h, "%d error %v\n", i, err)
			continue
		}
		sc, err := s.Build()
		if err != nil {
			t.Fatalf("input %d (%s): CompilePlan accepts, Build refuses: %v", i, s.Name, err)
		}
		valid++
		fmt.Fprintf(h, "%d %s\n", i, sc.Faults)
		checkLoweringsAgree(t, plan, sc.Faults)
	}
	if valid < 2500 {
		t.Fatalf("only %d valid inputs: the generator no longer exercises the lowerings", valid)
	}
	const want = "af904b298ed3000ced2baf96d240620f5e6494f0f1526172cd2c847eba70b8db"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("lowerings hash %s, want %s (valid inputs: %d)", got, want, valid)
	}
}
