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
