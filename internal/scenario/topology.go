package scenario

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Edges generates the undirected edge set of the topology over n
// processes, each edge with A < B, sorted lexicographically. Every kind
// emits its edges in that order as it generates them, with no
// duplicates, so nothing is sorted afterwards. Generation is
// deterministic: a random topology is a pure function of (kind, n,
// seed, edge_prob).
func (t TopologySpec) Edges(n int) ([]sim.Edge, error) {
	// Complete links every pair; ring, tree and chord generate at most
	// n·(⌊log₂ n⌋+1) edges, and random grows past that as it needs.
	size := max(n, 0) * bits.Len(uint(n))
	if t.Kind == TopologyComplete || t.Kind == "" {
		size = n * (n - 1) / 2
	}
	edges := make([]sim.Edge, 0, size)
	add := func(a, b int) {
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
			if a == 1 && n > 2 {
				add(1, n)
			}
		}
	case TopologyTree:
		deg := t.Degree
		if deg == 0 {
			deg = 2
		}
		if deg < 1 {
			return nil, fmt.Errorf("topology tree: degree = %d must be ≥ 1", t.Degree)
		}
		// A child's parent (i-2)/deg+1 never decreases with i.
		for i := 2; i <= n; i++ {
			add((i-2)/deg+1, i)
		}
	case TopologyChord:
		// The gossip overlay of the live cluster: node i links to
		// i ± 2^j (mod n) for every power of two below n, giving
		// O(log n) degree with O(log n) diameter — each node
		// heartbeats a logarithmic neighborhood, yet news crosses the
		// whole ring in logarithmically many hops (Dobre et al.'s
		// argument for gossip over all-to-all dissemination).
		//
		// Node a's higher neighbours are a+2^k ≤ n, ascending in k, and
		// a+n−2^k for a ≤ 2^k < n (the steps that wrap past n back to
		// a), ascending as k falls: merging the two lists, repeats
		// dropped, emits a's edges in order.
		var pow [bits.UintSize]int
		m := 0
		for step := 1; step < n; step *= 2 {
			pow[m] = step
			m++
		}
		for a := 1; a <= n; a++ {
			up, wrap := 0, m-1
			for {
				b, c := n+1, n+1
				if up < m && a+pow[up] <= n {
					b = a + pow[up]
				}
				if wrap >= 0 && pow[wrap] >= a {
					c = a + n - pow[wrap]
				}
				if b > n && c > n {
					break
				}
				if b <= c {
					up++
				}
				if c <= b {
					wrap--
				}
				add(a, min(b, c))
			}
		}
	case TopologyRandom:
		if t.EdgeProb < 0 || t.EdgeProb > 100 {
			return nil, fmt.Errorf("topology random: edge_prob = %d%% outside [0, 100]", t.EdgeProb)
		}
		rng := rand.New(rand.NewSource(t.Seed))
		// A random spanning tree keeps the graph connected: each process
		// links to one uniformly chosen earlier process, its parent.
		parent := make([]int, n+1)
		for i := 2; i <= n; i++ {
			parent[i] = 1 + rng.Intn(i-1)
		}
		// Then every remaining pair joins independently with EdgeProb%;
		// a tree edge is emitted in its pair's place, without a draw.
		for a := 1; a <= n; a++ {
			for b := a + 1; b <= n; b++ {
				if parent[b] == a || rng.Intn(100) < t.EdgeProb {
					add(a, b)
				}
			}
		}
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
	return edges, nil
}

func compareEdges(x, y sim.Edge) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// edgeIndex returns the index of edge e (A < B) in the sorted overlay,
// or -1 when the overlay does not link its ends.
func edgeIndex(overlay []sim.Edge, e [2]int) int {
	i, found := slices.BinarySearchFunc(overlay, sim.Edge{A: model.ProcessID(e[0]), B: model.ProcessID(e[1])}, compareEdges)
	if !found {
		return -1
	}
	return i
}
