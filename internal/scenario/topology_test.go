package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

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
