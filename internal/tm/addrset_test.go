package tm

import (
	"testing"

	"getm/internal/sim"
)

// AddrSet answers as a Go map would across adds, growth and resets.
func TestAddrSetMatchesMap(t *testing.T) {
	rng := sim.NewRNG(11)
	var s AddrSet
	want := map[uint64]bool{}
	for round := 0; round < 200; round++ {
		s.Reset()
		clear(want)
		n := int(rng.Uint64n(100))
		for i := 0; i < n; i++ {
			a := rng.Uint64n(64) * 8
			s.Add(a)
			want[a] = true
		}
		if s.Len() != len(want) {
			t.Fatalf("round %d: Len %d, want %d", round, s.Len(), len(want))
		}
		for a := uint64(0); a < 64*8; a += 8 {
			if s.Has(a) != want[a] {
				t.Fatalf("round %d: Has(%d) = %v, want %v", round, a, s.Has(a), want[a])
			}
		}
	}
}

// When the generation wraps, Reset clears the slots, so an address added
// in generation 1 does not read as live in the next generation 1.
func TestAddrSetGenerationWrap(t *testing.T) {
	var s AddrSet
	s.Add(8)
	s.gen = ^uint32(0) // as after 2^32-2 resets
	s.Reset()
	s.Add(16)
	if s.gen != 1 || s.Has(8) || s.Len() != 1 {
		t.Fatalf("after the wrap: gen %d, Has(8) %v, Len %d", s.gen, s.Has(8), s.Len())
	}
}

// A set that has grown to a footprint refills it without allocating.
func TestAddrSetResetKeepsCapacity(t *testing.T) {
	var s AddrSet
	fill := func() {
		s.Reset()
		for a := uint64(0); a < 40; a++ {
			s.Add(a * 32)
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Fatalf("refill allocates %.1f objects, want 0", n)
	}
}
