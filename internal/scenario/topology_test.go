package scenario

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// refEdges is the generator Edges replaced, kept as its reference: it
// adds each kind's edges in whatever order they come, then sorts the
// list and drops repeats. Edges emits the same list already in order.
func refEdges(t TopologySpec, n int) ([]sim.Edge, error) {
	var edges []sim.Edge
	add := func(a, b int) {
		if b < a {
			a, b = b, a
		}
		edges = append(edges, sim.Edge{A: model.ProcessID(a), B: model.ProcessID(b)})
	}
	switch t.Kind {
	case TopologyComplete, "":
		for a := 1; a <= n; a++ {
			for b := a + 1; b <= n; b++ {
				add(a, b)
			}
		}
	case TopologyRing:
		for a := 1; a < n; a++ {
			add(a, a+1)
		}
		if n > 2 {
			add(1, n)
		}
	case TopologyTree:
		deg := t.Degree
		if deg == 0 {
			deg = 2
		}
		if deg < 1 {
			return nil, fmt.Errorf("topology tree: degree = %d must be ≥ 1", t.Degree)
		}
		for i := 2; i <= n; i++ {
			add((i-2)/deg+1, i)
		}
	case TopologyChord:
		for i := 1; i <= n; i++ {
			for step := 1; step < n; step *= 2 {
				if j := (i-1+step)%n + 1; i != j {
					add(i, j)
				}
			}
		}
	case TopologyRandom:
		if t.EdgeProb < 0 || t.EdgeProb > 100 {
			return nil, fmt.Errorf("topology random: edge_prob = %d%% outside [0, 100]", t.EdgeProb)
		}
		rng := rand.New(rand.NewSource(t.Seed))
		parent := make([]int, n+1)
		for i := 2; i <= n; i++ {
			parent[i] = 1 + rng.Intn(i-1)
			add(parent[i], i)
		}
		for a := 1; a <= n; a++ {
			for b := a + 1; b <= n; b++ {
				if parent[b] != a && rng.Intn(100) < t.EdgeProb {
					add(a, b)
				}
			}
		}
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
	slices.SortFunc(edges, func(x, y sim.Edge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return slices.Compact(edges), nil
}

// checkEdgesMatchReference requires Edges and refEdges to agree on top
// at n: the same error text, or the same edge list.
func checkEdgesMatchReference(t *testing.T, top TopologySpec, n int) {
	t.Helper()
	got, err := top.Edges(n)
	want, refErr := refEdges(top, n)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%+v at n=%d: error %v, reference %v", top, n, err, refErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%+v at n=%d: %d edges %v,\nreference %d edges %v", top, n, len(got), got, len(want), want)
	}
}

// TestEdgesMatchSortedReference holds Edges, which generates each kind
// in order, to the generate-sort-compact reference: every kind at every
// size to 300, chord at two sizes past a thousand, and random overlays
// over a grid of seeds and edge probabilities. The grid's n² pair draws
// and sorts would take half a minute at every size, so it covers every
// size the simulator takes (n ≤ 64) and five beyond.
func TestEdgesMatchSortedReference(t *testing.T) {
	tops := []TopologySpec{{}, {Kind: TopologyComplete}, {Kind: TopologyRing}, {Kind: TopologyChord},
		{Kind: TopologyTree, Degree: -1}, {Kind: TopologyRandom, Seed: 1, EdgeProb: 30}}
	for deg := 1; deg <= 5; deg++ {
		tops = append(tops, TopologySpec{Kind: TopologyTree, Degree: deg})
	}
	for n := 0; n <= 300; n++ {
		for _, top := range tops {
			checkEdgesMatchReference(t, top, n)
		}
	}
	for _, n := range []int{1024, 1100} {
		checkEdgesMatchReference(t, TopologySpec{Kind: TopologyChord}, n)
	}
	sizes := []int{97, 128, 199, 256, 300}
	for n := 0; n <= model.MaxProcesses; n++ {
		sizes = append(sizes, n)
	}
	for seed := int64(0); seed < 10; seed++ {
		for _, prob := range []int{0, 1, 30, 99, 100} {
			for _, n := range sizes {
				checkEdgesMatchReference(t, TopologySpec{Kind: TopologyRandom, Seed: seed, EdgeProb: prob}, n)
			}
		}
	}
}

// FuzzTopologyEdges holds Edges to refEdges on arbitrary kinds, sizes
// up to 1100, tree degrees, seeds and edge probabilities, out-of-range
// ones included: both must refuse the same specs and generate the same
// lists.
func FuzzTopologyEdges(f *testing.F) {
	f.Add(uint8(3), uint16(64), 0, int64(0), 0)
	f.Add(uint8(3), uint16(1100), 0, int64(0), 0)
	f.Add(uint8(2), uint16(3), 0, int64(0), 0)
	f.Add(uint8(4), uint16(40), 3, int64(0), 0)
	f.Add(uint8(5), uint16(50), 0, int64(7), 30)
	f.Add(uint8(5), uint16(9), 0, int64(-1), 101)
	kinds := []string{"", TopologyComplete, TopologyRing, TopologyChord, TopologyTree, TopologyRandom, "star"}
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, degree int, seed int64, prob int) {
		top := TopologySpec{Kind: kinds[int(kind)%len(kinds)], Degree: degree, Seed: seed, EdgeProb: prob}
		size := int(n) % 1101
		if top.Kind == "" || top.Kind == TopologyComplete || top.Kind == TopologyRandom {
			// The dense kinds grow with n²: keep each input quick.
			size %= 301
		}
		checkEdgesMatchReference(t, top, size)
	})
}

// TestChordTopologyDegree pins the O(log n) property the live cluster
// stakes its scalability on: every node's chord degree is at most
// 2⌈log2 n⌉, at every size from the smoke cluster to well past the
// 200-node acceptance run.
func TestChordTopologyDegree(t *testing.T) {
	for _, n := range []int{2, 3, 4, 16, 50, 200, 333} {
		edges, err := TopologySpec{Kind: TopologyChord}.Edges(n)
		if err != nil {
			t.Fatal(err)
		}
		deg := make([]int, n+1)
		for _, e := range edges {
			deg[e.A]++
			deg[e.B]++
		}
		bound := 2 * int(math.Ceil(math.Log2(float64(n))))
		if n == 2 {
			bound = 1
		}
		for p := 1; p <= n; p++ {
			if deg[p] == 0 {
				t.Fatalf("n=%d: node %d is isolated", n, p)
			}
			if deg[p] > bound {
				t.Fatalf("n=%d: node %d has degree %d, want ≤ %d", n, p, deg[p], bound)
			}
		}
	}
}

// TestChordTopologyConnected: the overlay must be connected, or gossip
// cannot disseminate.
func TestChordTopologyConnected(t *testing.T) {
	for _, n := range []int{2, 5, 16, 200} {
		edges, err := TopologySpec{Kind: TopologyChord}.Edges(n)
		if err != nil {
			t.Fatal(err)
		}
		adj := make(map[int][]int)
		for _, e := range edges {
			adj[int(e.A)] = append(adj[int(e.A)], int(e.B))
			adj[int(e.B)] = append(adj[int(e.B)], int(e.A))
		}
		seen := map[int]bool{1: true}
		queue := []int{1}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: chord overlay reaches %d of %d nodes", n, len(seen), n)
		}
	}
}

// TestTopologyEdgesPinned pins the generated edge lists, order
// included, of every kind over a grid of sizes, degrees and seeds: the
// permanent non-edge cut and every side boundary are lowered in this
// order, so a generator that yields another graph or order changes
// trace digests.
func TestTopologyEdgesPinned(t *testing.T) {
	tops := []TopologySpec{{Kind: TopologyComplete}, {Kind: TopologyRing}, {Kind: TopologyChord}}
	for deg := 1; deg <= 3; deg++ {
		tops = append(tops, TopologySpec{Kind: TopologyTree, Degree: deg})
	}
	for seed := int64(0); seed < 5; seed++ {
		for _, prob := range []int{0, 30, 100} {
			tops = append(tops, TopologySpec{Kind: TopologyRandom, Seed: seed, EdgeProb: prob})
		}
	}
	h := sha256.New()
	for n := 1; n <= 40; n++ {
		for _, top := range tops {
			edges, err := top.Edges(n)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%+v/%d: %v\n", top, n, edges)
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "442e451823f1db0e05804577232c4d7398dcd7e0c5cbf40bdebeedda961eea94"; got != want {
		t.Fatalf("edge lists hash to %s, want %s", got, want)
	}
}
