package sim

import (
	"sort"
	"testing"
)

// checkTableAgainstMap compares every lookup of tab, over keys, and its
// Range with the map model want.
func checkTableAgainstMap(t *testing.T, tab *Table[int32], want map[uint64]int32, keys []uint64) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(want))
	}
	for _, k := range keys {
		v := tab.Find(k)
		w, ok := want[k]
		if (v != nil) != ok || (ok && *v != w) {
			t.Fatalf("Find(%#x) = %v, want %d (present %v)", k, v, w, ok)
		}
	}
	var got []uint64
	tab.Range(func(k uint64, v *int32) bool {
		if *v != want[k] {
			t.Fatalf("Range: key %#x payload %d, want %d", k, *v, want[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("Range visited %#x twice", got[i])
		}
	}
}

// Table answers as a Go map would over 10,000 seeded rounds of inserts,
// counts that rise and fall to zero (a count of zero stays a key, as the
// store scoreboard relies on), growth and resets. Keys come from small
// pools, so probe runs are long, or from the whole 64-bit space.
func TestTableMatchesMap(t *testing.T) {
	rng := NewRNG(25)
	var tab Table[int32]
	want := map[uint64]int32{}
	for round := 0; round < 10_000; round++ {
		pool := 1 + rng.Uint64n(200)
		keys := make([]uint64, pool)
		for i := range keys {
			switch round % 3 {
			case 0:
				keys[i] = uint64(i) * 8
			case 1:
				keys[i] = uint64(i) << 9 // page numbers' spacing
			default:
				keys[i] = rng.Uint64()
			}
		}
		if rng.Uint64n(4) != 0 {
			tab.Reset()
			clear(want)
		}
		for op, n := 0, int(rng.Uint64n(300)); op < n; op++ {
			k := keys[rng.Uint64n(pool)]
			switch rng.Uint64n(3) {
			case 0, 1:
				*tab.Ensure(k)++
				want[k]++
			default:
				if v := tab.Find(k); v != nil && *v > 0 {
					*v--
					want[k]--
				}
			}
		}
		checkTableAgainstMap(t, &tab, want, keys)
	}
}

// When the generation wraps, Reset clears the slots, so a key inserted in
// generation 1 does not read as live in the next generation 1.
func TestTableGenerationWrap(t *testing.T) {
	var tab Table[struct{}]
	tab.Ensure(8)
	tab.gen = ^uint32(0) // as after 2^32-2 resets
	tab.Reset()
	tab.Ensure(16)
	if tab.gen != 1 || tab.Find(8) != nil || tab.Len() != 1 {
		t.Fatalf("after the wrap: gen %d, Find(8) %v, Len %d", tab.gen, tab.Find(8), tab.Len())
	}
}

// Range stops at the first false.
func TestTableRangeStops(t *testing.T) {
	var tab Table[int]
	for k := uint64(0); k < 10; k++ {
		*tab.Ensure(k) = int(k)
	}
	n := 0
	tab.Range(func(uint64, *int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range called f %d times after a false, want 3", n)
	}
}

// A table that has grown to a footprint refills it without allocating.
func TestTableResetKeepsCapacity(t *testing.T) {
	var tab Table[int32]
	fill := func() {
		tab.Reset()
		for k := uint64(0); k < 40; k++ {
			*tab.Ensure(k * 32)++
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Fatalf("refill allocates %.1f objects, want 0", n)
	}
}
