package core

import (
	"slices"
	"testing"

	"getm/internal/sim"
)

// mapStallBuffer is the stall buffer as it was before its lines became a
// slice: a Go map from granule to queue. It is the oracle that
// TestStallBufferMatchesMapVersion holds StallBuffer to.
type mapStallBuffer struct {
	lines, entriesPerLine int
	byGranule             map[uint64][]*StalledReq
	totalQueued           int
	MaxOccupancy          int
	PerAddrCount          uint64
	PerAddrTotal          uint64
	EnqueueCount          uint64
	RejectedFull          uint64
}

func (b *mapStallBuffer) Enqueue(r *StalledReq) bool {
	q, lineExists := b.byGranule[r.Granule]
	if !lineExists && len(b.byGranule) >= b.lines {
		b.RejectedFull++
		return false
	}
	if len(q) >= b.entriesPerLine {
		b.RejectedFull++
		return false
	}
	b.byGranule[r.Granule] = append(q, r)
	b.totalQueued++
	b.EnqueueCount++
	b.PerAddrCount++
	b.PerAddrTotal += uint64(len(b.byGranule[r.Granule]))
	if b.totalQueued > b.MaxOccupancy {
		b.MaxOccupancy = b.totalQueued
	}
	return true
}

func (b *mapStallBuffer) Release(granule uint64) *StalledReq {
	r := b.oldest(granule)
	if r == nil {
		return nil
	}
	q := slices.DeleteFunc(b.byGranule[granule], func(x *StalledReq) bool { return x == r })
	if len(q) == 0 {
		delete(b.byGranule, granule)
	} else {
		b.byGranule[granule] = q
	}
	b.totalQueued--
	return r
}

func (b *mapStallBuffer) oldest(granule uint64) *StalledReq {
	var o *StalledReq
	for _, r := range b.byGranule[granule] {
		if o == nil || r.Warpts < o.Warpts {
			o = r
		}
	}
	return o
}

// StallBuffer makes every decision the map version makes, over 10,000
// seeded runs of enqueues and releases on small geometries (0 to 4 lines of
// 0 to 4 entries, 1 to 8 granules, few distinct warpts so ties are common):
// the same accepts and rejects, the same waiter released (the first one
// with the minimum warpts), the same oldest waiter, and the same counters.
func TestStallBufferMatchesMapVersion(t *testing.T) {
	rng := sim.NewRNG(9)
	var tracker OccTracker
	for run := 0; run < 10_000; run++ {
		lines, entries := rng.Intn(5), rng.Intn(5)
		granules := 1 + rng.Intn(8)
		b := NewStallBuffer(lines, entries)
		b.SetTracker(&tracker)
		m := &mapStallBuffer{lines: lines, entriesPerLine: entries, byGranule: map[uint64][]*StalledReq{}}
		for op, n := 0, 1+rng.Intn(80); op < n; op++ {
			g := uint64(rng.Intn(granules)) * 32
			switch rng.Intn(3) {
			case 0, 1:
				r := &StalledReq{Granule: g, Warpts: rng.Uint64n(4)}
				if got, want := b.Enqueue(r), m.Enqueue(r); got != want {
					t.Fatalf("run %d op %d: Enqueue(granule %#x) = %v, want %v", run, op, g, got, want)
				}
			default:
				if got, want := b.oldest(g), m.oldest(g); got != want {
					t.Fatalf("run %d op %d: oldest(%#x) = %p, want %p", run, op, g, got, want)
				}
				if got, want := b.Release(g), m.Release(g); got != want {
					t.Fatalf("run %d op %d: Release(%#x) = %p, want %p", run, op, g, got, want)
				}
			}
			if b.Occupancy() != m.totalQueued || waiting(b, g) != len(m.byGranule[g]) {
				t.Fatalf("run %d op %d: occupancy %d waiting %d, want %d and %d",
					run, op, b.Occupancy(), waiting(b, g), m.totalQueued, len(m.byGranule[g]))
			}
		}
		if b.MaxOccupancy != m.MaxOccupancy || b.RejectedFull != m.RejectedFull ||
			b.EnqueueCount != m.EnqueueCount || b.PerAddrCount != m.PerAddrCount || b.PerAddrTotal != m.PerAddrTotal {
			t.Fatalf("run %d: counters %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d", run,
				b.MaxOccupancy, b.RejectedFull, b.EnqueueCount, b.PerAddrCount, b.PerAddrTotal,
				m.MaxOccupancy, m.RejectedFull, m.EnqueueCount, m.PerAddrCount, m.PerAddrTotal)
		}
		// Drain what is left so the shared tracker returns to zero.
		for g := 0; g < granules; g++ {
			for b.Release(uint64(g)*32) != nil {
			}
		}
		if tracker.cur != 0 {
			t.Fatalf("run %d: tracker holds %d after the drain", run, tracker.cur)
		}
	}
}
