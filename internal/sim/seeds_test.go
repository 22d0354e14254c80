package sim

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"realisticfd/internal/fd"
)

// TestSeededGeneratorMatchesFresh holds the generator a RunContext
// starts each run with to rand.New(rand.NewSource(seed)), over one
// context and an order that takes every path of its seed table:
// first sightings, repeats that fill a slot and repeats that copy one,
// seeds that share a slot (s and s+seedSlots, 0 and math.MinInt64),
// negative seeds, the extremes, and 5 and 5+(1<<31-1), which rand seeds
// identically. Each start is drawn from by a different amount, Read's
// buffer left part-used included, so a start that kept any of the last
// run's state, or copied a slot from a used source, draws differently.
func TestSeededGeneratorMatchesFresh(t *testing.T) {
	t.Parallel()
	const a = 12345
	seeds := []int64{
		a, 7, a, a, a + seedSlots, a, a, a + seedSlots, 7,
		-a, -a, -1, -1, seedSlots - 1, -1,
		0, math.MinInt64, 0, 0, math.MinInt64, math.MinInt64,
		math.MaxInt64, math.MaxInt64, seedSlots - 1, math.MaxInt64,
		5, 5 + (1<<31 - 1), 5, 5 + (1<<31 - 1), 5, 5 + (1<<31 - 1),
		a, 7,
	}
	rc := NewRunContext()
	for i, seed := range seeds {
		got, want := rc.startRNG(rc.seeds.start(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 1+i*7%23; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("start %d (seed %d): Int63 draw %d is %d, a fresh generator's %d", i, seed, k, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("start %d (seed %d): Uint64 draw %d is %d, a fresh generator's %d", i, seed, k, g, w)
			}
			if g, w := got.Intn(k+1), want.Intn(k+1); g != w {
				t.Fatalf("start %d (seed %d): Intn(%d) is %d, a fresh generator's %d", i, seed, k+1, g, w)
			}
		}
		gs, ws := make([]int, 1+i%9), make([]int, 1+i%9)
		for k := range gs {
			gs[k], ws[k] = k, k
		}
		got.Shuffle(len(gs), func(x, y int) { gs[x], gs[y] = gs[y], gs[x] })
		want.Shuffle(len(ws), func(x, y int) { ws[x], ws[y] = ws[y], ws[x] })
		if !slices.Equal(gs, ws) {
			t.Fatalf("start %d (seed %d): Shuffle gives %v, a fresh generator %v", i, seed, gs, ws)
		}
		gb, wb := make([]byte, 1+i%5), make([]byte, 1+i%5)
		got.Read(gb)
		want.Read(wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("start %d (seed %d): Read gives %x, a fresh generator %x", i, seed, gb, wb)
		}
	}
}

// TestSeedTableAllocBudgets pins what a RunContext's seed table costs
// once the context is warm: nothing. Cycling the 42 seeds of a table's
// range three times (each seed first seen, then filled into its slot,
// then copied from it) allocates per run what a run repeating one seed
// does, pass by pass, and so do 4 200 distinct seeds, as a sweep runs
// them, which must fill no slot; the table's block is the one the
// context first allocated throughout. The package-level Execute, whose
// context runs once, allocates no table at all. Like
// testing.AllocsPerRun, the counts are integer means over the runs, at
// GOMAXPROCS 1. It is not parallel: ReadMemStats counts every
// allocation in the process.
func TestSeedTableAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds for the build the benchmark measures")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rc := NewRunContext()
	// perRun is the mean number of allocations a run of the given seeds
	// makes, rounded down.
	perRun := func(seeds []int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, seed := range seeds {
			_, err := rc.Execute(Config{
				N: 8, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{Delay: 2},
				Horizon: 200, Seed: seed, Policy: &RandomFairPolicy{},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / uint64(len(seeds))
	}
	perRun([]int64{1, 1})
	block := rc.seeds.block.Addr().UnsafePointer()
	single := perRun(slices.Repeat([]int64{1}, 42))

	table := make([]int64, 42)
	for i := range table {
		table[i] = int64(100 + i)
	}
	for pass, what := range []string{"first seen", "filled", "copied"} {
		if got := perRun(table); got != single {
			t.Errorf("42 seeds, pass %d (%s): %d allocations a run, %d repeating one seed", pass+1, what, got, single)
		}
	}
	distinct := make([]int64, 4200)
	for i := range distinct {
		distinct[i] = int64(1000 + i)
	}
	if got := perRun(distinct); got != single {
		t.Errorf("%d distinct seeds: %d allocations a run, %d repeating one seed", len(distinct), got, single)
	}
	if rc.seeds.filled != 0 {
		t.Errorf("%d distinct seeds left slots %#x filled; a slot is filled only when its seed comes back", len(distinct), rc.seeds.filled)
	}
	if rc.seeds.block.Addr().UnsafePointer() != block {
		t.Error("the seed table's block was allocated again on a warm context")
	}

	// The package-level Execute runs its context once, so it allocates
	// no table: a run of it stays far below the table's size.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(0); seed < 5; seed++ {
		if _, err := Execute(Config{
			N: 8, Automaton: broadcastAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Horizon: 200, Seed: seed, Policy: &RandomFairPolicy{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, table := (after.TotalAlloc-before.TotalAlloc)/5, uint64(sourceBlock.Size()); got > table/4 {
		t.Errorf("a package-level Execute allocates %d bytes a run; the seed table alone is %d", got, table)
	}
}
