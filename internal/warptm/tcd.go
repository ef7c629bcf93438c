package warptm

import "getm/internal/sim"

// tcdWays recycles the filter arrays of finished runs' TCDs.
var tcdWays sim.Recycler[sim.Cycle]

// TCD is the temporal-conflict-detection filter at one LLC partition: a
// recency bloom filter recording the physical cycle of the last store to
// each line. Hash collisions fold values with max, and lookups take the
// minimum across ways, so the reported time is never earlier than the true
// last write — a read-only transaction silently commits only when it is
// certainly safe.
type TCD struct {
	seeds []uint64
	mask  uint64
	ways  [][]sim.Cycle
}

// NewTCD builds a filter with the given total entries split across ways.
func NewTCD(ways, totalEntries int, rng *sim.RNG) *TCD {
	if ways <= 0 {
		panic("warptm: TCD needs at least one way")
	}
	perWay := 1
	for perWay < totalEntries/ways {
		perWay <<= 1
	}
	t := &TCD{seeds: make([]uint64, ways), mask: uint64(perWay - 1)}
	for i := range t.seeds {
		t.seeds[i] = rng.Uint64() | 1
	}
	t.ways = make([][]sim.Cycle, ways)
	for i := range t.ways {
		t.ways[i] = tcdWays.Get(perWay)
	}
	return t
}

// Recycle hands the filter's arrays to the next filter of the same geometry
// built in this process. The filter must not be used afterwards.
func (t *TCD) Recycle() {
	for _, w := range t.ways {
		tcdWays.Put(w)
	}
	t.ways = nil
}

// RecordWrite notes a store to line at the given cycle.
func (t *TCD) RecordWrite(line uint64, when sim.Cycle) {
	for w := range t.ways {
		s := sim.Mix64(line*t.seeds[w]) & t.mask
		if when > t.ways[w][s] {
			t.ways[w][s] = when
		}
	}
}

// LastWrite returns the (over)estimated cycle of the last store to line.
func (t *TCD) LastWrite(line uint64) sim.Cycle {
	best := sim.Cycle(^uint64(0))
	for w := range t.ways {
		s := sim.Mix64(line*t.seeds[w]) & t.mask
		if t.ways[w][s] < best {
			best = t.ways[w][s]
		}
	}
	return best
}
