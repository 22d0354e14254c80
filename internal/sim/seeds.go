package sim

import (
	"math/rand"
	"reflect"
)

// seedSlots is how many seeds' generator states a RunContext keeps. The
// E1–E9 tables run each of their configs over the same 40–42 seeds, so
// a table's whole seed range fits.
const seedSlots = 64

// sourceBlock is the type of seedSources' one allocation: seedSlots
// slots and then the run's own source, each of the concrete type
// behind rand.NewSource (unexported, so reached through reflect).
var sourceBlock = reflect.ArrayOf(seedSlots+1, reflect.TypeOf(rand.NewSource(0)).Elem())

// seedSources starts each run's source in the state rand.NewSource
// starts in. Seeding a math/rand source rewrites all 607 words of its
// state through 1 841 calls of its seed generator, and a campaign runs
// many configs over the same few seeds; a run is a function of its
// seed, so the seeded state of a seed that comes back is copied from a
// slot that holds it, never drawn from: about 4.9 KB of pointer-free
// memory.
//
// The table is direct-mapped on uint64(seed) % seedSlots. A seed that
// finds its slot remembering another seed is seeded into the run's
// source directly, and the slot remembers it instead; the slot is
// filled only when that seed comes back. A sweep whose seeds are all
// distinct therefore copies nothing, bar seed 0, which a fresh table
// already remembers.
type seedSources struct {
	keys   [seedSlots]int64
	filled uint64        // bit i: slot i holds the seeded state of keys[i]
	block  reflect.Value // the sourceBlock, addressable
	run    rand.Source   // its last element
}

// start puts the run's source in the state rand.NewSource(seed) starts
// in and returns it.
func (s *seedSources) start(seed int64) rand.Source {
	if s.run == nil {
		// The slots and the run's source are one allocation.
		s.block = reflect.New(sourceBlock).Elem()
		s.run = s.block.Index(seedSlots).Addr().Interface().(rand.Source)
	}
	i := uint64(seed) % seedSlots
	bit := uint64(1) << i
	if s.keys[i] != seed {
		s.keys[i] = seed
		s.filled &^= bit
		s.run.Seed(seed)
		return s.run
	}
	slot := s.block.Index(int(i))
	if s.filled&bit == 0 {
		slot.Addr().Interface().(rand.Source).Seed(seed)
		s.filled |= bit
	}
	s.block.Index(seedSlots).Set(slot)
	return s.run
}

// startRNG returns the context's generator over src. The Rand is
// rebuilt, not re-seeded, which also empties the buffer its Read keeps:
// with src in the state rand.NewSource(seed) starts in, it draws what
// rand.New(rand.NewSource(seed)) draws.
func (rc *RunContext) startRNG(src rand.Source) *rand.Rand {
	rc.rng = *rand.New(src)
	return &rc.rng
}
