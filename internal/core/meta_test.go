package core

import (
	"testing"
	"testing/quick"

	"getm/internal/sim"
)

func testTable(t *testing.T, entries int) *MetaTable {
	t.Helper()
	cfg := DefaultConfig()
	return NewMetaTable(cfg, entries, 256, sim.NewRNG(7))
}

func TestMetaLookupCreatesFromApprox(t *testing.T) {
	tab := testTable(t, 64)
	tab.approx.Insert(42, 100, 50)
	e, cycles, ov := tab.Lookup(42)
	if e.WTS != 100 || e.RTS != 50 || e.Writes != 0 {
		t.Fatalf("created entry = %+v", e)
	}
	if cycles < 1 || ov {
		t.Fatalf("cycles=%d overflow=%v", cycles, ov)
	}
	// Second lookup hits the same entry.
	e2, c2, _ := tab.Lookup(42)
	if e2 != e || c2 != 1 {
		t.Fatal("repeat lookup should hit precisely in 1 cycle")
	}
}

func TestMetaLookupFreshGranuleZeroTimestamps(t *testing.T) {
	tab := testTable(t, 64)
	e, _, _ := tab.Lookup(7)
	if e.WTS != 0 || e.RTS != 0 {
		t.Fatalf("fresh granule has non-zero timestamps: %+v", e)
	}
}

func TestMetaMutationPersists(t *testing.T) {
	tab := testTable(t, 64)
	e, _, _ := tab.Lookup(9)
	e.WTS, e.RTS, e.Writes, e.Owner = 5, 4, 2, 11
	e2, _, _ := tab.Lookup(9)
	if e2.WTS != 5 || e2.RTS != 4 || e2.Writes != 2 || e2.Owner != 11 {
		t.Fatalf("mutation lost: %+v", e2)
	}
}

func TestMetaRelease(t *testing.T) {
	tab := testTable(t, 64)
	e, _, _ := tab.Lookup(3)
	e.Writes = 3
	if rem := tab.Release(3, 2); rem != 1 {
		t.Fatalf("remaining = %d, want 1", rem)
	}
	if rem := tab.Release(3, 1); rem != 0 {
		t.Fatalf("remaining = %d, want 0", rem)
	}
	if tab.LockedEntries() != 0 {
		t.Fatal("locked entries should be 0")
	}
}

func TestMetaReleaseUnderflowPanics(t *testing.T) {
	tab := testTable(t, 64)
	tab.Lookup(3)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	tab.Release(3, 1)
}

func TestMetaEvictionGoesToApprox(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 2
	tab := NewMetaTable(cfg, 16, 64, sim.NewRNG(3))
	// Fill way past capacity with unlocked entries carrying timestamps.
	for g := uint64(0); g < 200; g++ {
		e, _, _ := tab.Lookup(g)
		e.WTS = g + 1
	}
	if tab.Evictions == 0 {
		t.Fatal("expected evictions to the approximate table")
	}
	// Evicted granules must still report a wts >= what they had
	// (overestimates allowed, underestimates never).
	for g := uint64(0); g < 200; g++ {
		e, _, _ := tab.Lookup(g)
		if e.WTS < g+1 {
			t.Fatalf("granule %d wts underestimated: %d < %d", g, e.WTS, g+1)
		}
	}
}

func TestMetaLockedEntriesSurviveOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 2
	cfg.MaxKicks = 4
	tab := NewMetaTable(cfg, 8, 64, sim.NewRNG(5))
	// Lock far more granules than the precise table holds: they must all
	// remain precisely tracked (stash + overflow).
	const n = 64
	for g := uint64(0); g < n; g++ {
		e, _, _ := tab.Lookup(g)
		e.Writes = 1
		e.Owner = int(g)
	}
	if tab.LockedEntries() != n {
		t.Fatalf("locked = %d, want %d", tab.LockedEntries(), n)
	}
	if tab.OverflowInserts == 0 {
		t.Fatal("expected overflow spills with 8-entry table and 64 locks")
	}
	for g := uint64(0); g < n; g++ {
		e, _, _ := tab.Lookup(g)
		if e.Writes != 1 || e.Owner != int(g) {
			t.Fatalf("locked granule %d lost: %+v", g, e)
		}
	}
}

// The spill order when every precise slot is locked: displacement chains land
// in the stash until it is full, and only then in the overflow list — at which
// point the lookup reports overflowed and pays the overflow penalty.
func TestMetaStashFullSpillsToOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 2
	cfg.MaxKicks = 2
	tab := NewMetaTable(cfg, 8, 64, sim.NewRNG(9))
	for g := uint64(0); g < 64; g++ {
		e, cycles, ov := tab.Lookup(g)
		e.Writes = 1 // lock: nothing can evict to the approximate table
		if !ov {
			continue
		}
		// First spill past the stash: it must already be full.
		if tab.StashedEntries != uint64(cfg.StashEntries) {
			t.Fatalf("overflowed with %d/%d stash entries used", tab.StashedEntries, cfg.StashEntries)
		}
		if cycles < 1+cfg.OverflowPenalty {
			t.Fatalf("overflow insert cost %d cycles, want >= %d", cycles, 1+cfg.OverflowPenalty)
		}
		// Re-looking-up the spilled granule hits the overflow list precisely.
		e2, c2, ov2 := tab.Lookup(g)
		if e2 != e || !ov2 || c2 != 1 {
			t.Fatalf("overflow re-lookup: e2==e=%v ov=%v cycles=%d", e2 == e, ov2, c2)
		}
		return
	}
	t.Fatal("no lookup overflowed with an 8-entry table, 2-entry stash, and 64 locked granules")
}

// Flush after overflow spills must clear the overflow list too (a fresh
// lookup sees zero timestamps and no overflow).
func TestMetaFlushClearsOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 2
	cfg.MaxKicks = 2
	tab := NewMetaTable(cfg, 8, 64, sim.NewRNG(9))
	locked := make([]uint64, 0, 64)
	for g := uint64(0); g < 64; g++ {
		e, _, _ := tab.Lookup(g)
		e.WTS = g + 1
		e.Writes = 1
		locked = append(locked, g)
	}
	if tab.OverflowInserts == 0 {
		t.Fatal("setup never reached the overflow list")
	}
	for _, g := range locked {
		tab.Release(g, 1)
	}
	tab.Flush()
	for g := uint64(0); g < 64; g++ {
		e, _, ov := tab.Lookup(g)
		if e.WTS != 0 || ov {
			t.Fatalf("granule %d after flush: wts=%d overflow=%v", g, e.WTS, ov)
		}
	}
}

func TestMetaFlushPanicsWithLocks(t *testing.T) {
	tab := testTable(t, 64)
	e, _, _ := tab.Lookup(1)
	e.Writes = 1
	defer func() {
		if recover() == nil {
			t.Fatal("flush with locks did not panic")
		}
	}()
	tab.Flush()
}

func TestMetaFlushClears(t *testing.T) {
	tab := testTable(t, 64)
	e, _, _ := tab.Lookup(1)
	e.WTS = 99
	tab.Flush()
	e2, _, _ := tab.Lookup(1)
	if e2.WTS != 0 {
		t.Fatalf("flush left wts = %d", e2.WTS)
	}
	if tab.MaxTimestamp() != 0 {
		t.Fatal("flush left timestamps")
	}
}

func TestMetaMaxTimestamp(t *testing.T) {
	tab := testTable(t, 64)
	e, _, _ := tab.Lookup(1)
	e.WTS = 123
	e2, _, _ := tab.Lookup(2)
	e2.RTS = 456
	if tab.MaxTimestamp() != 456 {
		t.Fatalf("max ts = %d", tab.MaxTimestamp())
	}
}

// Property: timestamps surviving a round trip through eviction are never
// underestimated (the paper's key approximation-safety requirement).
func TestMetaNoUnderestimateProperty(t *testing.T) {
	prop := func(seed uint64, granules []uint16) bool {
		cfg := DefaultConfig()
		cfg.StashEntries = 2
		tab := NewMetaTable(cfg, 8, 32, sim.NewRNG(seed))
		want := map[uint64]uint64{}
		for i, g16 := range granules {
			g := uint64(g16 % 512)
			e, _, _ := tab.Lookup(g)
			ts := uint64(i + 1)
			if ts > e.WTS {
				e.WTS = ts
			}
			if e.WTS > want[g] {
				want[g] = e.WTS
			}
		}
		for g, w := range want {
			e, _, _ := tab.Lookup(g)
			if e.WTS < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxTableMinOfMaxes(t *testing.T) {
	a := NewApproxTable(4, 64, sim.NewRNG(11))
	a.Insert(1, 10, 20)
	wts, rts := a.Lookup(1)
	if wts != 10 || rts != 20 {
		t.Fatalf("lookup = (%d,%d)", wts, rts)
	}
	// A colliding insert can only raise estimates for granule 1.
	a.Insert(2, 100, 200)
	wts2, rts2 := a.Lookup(1)
	if wts2 < 10 || rts2 < 20 {
		t.Fatal("estimates decreased")
	}
	// Fresh granule: estimates bounded by the max inserted anywhere.
	wts3, _ := a.Lookup(999)
	if wts3 > 100 {
		t.Fatalf("fresh granule estimate %d exceeds any insert", wts3)
	}
}

func TestApproxTableFlush(t *testing.T) {
	a := NewApproxTable(4, 64, sim.NewRNG(1))
	a.Insert(5, 7, 8)
	a.Flush()
	if w, r := a.Lookup(5); w != 0 || r != 0 {
		t.Fatal("flush left values")
	}
	if a.MaxTimestamp() != 0 {
		t.Fatal("flush left max ts")
	}
}

// Property: the approximate table never underestimates an inserted granule's
// timestamps (hash collisions may only raise them).
func TestApproxNoUnderestimateProperty(t *testing.T) {
	prop := func(seed uint64, inserts []struct {
		G uint16
		W uint32
		R uint32
	}) bool {
		a := NewApproxTable(4, 32, sim.NewRNG(seed))
		maxW := map[uint64]uint64{}
		maxR := map[uint64]uint64{}
		for _, in := range inserts {
			g := uint64(in.G)
			a.Insert(g, uint64(in.W), uint64(in.R))
			if uint64(in.W) > maxW[g] {
				maxW[g] = uint64(in.W)
			}
			if uint64(in.R) > maxR[g] {
				maxR[g] = uint64(in.R)
			}
		}
		for g := range maxW {
			w, r := a.Lookup(g)
			if w < maxW[g] || r < maxR[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaAccessCyclesReasonable(t *testing.T) {
	// Fig 13's claim: even at very high load factors the mean access cost
	// stays near 1 cycle because unlocked entries evict to the approximate
	// table.
	cfg := DefaultConfig()
	tab := NewMetaTable(cfg, 64, 64, sim.NewRNG(13))
	var total sim.Cycle
	var n int
	for g := uint64(0); g < 10000; g++ {
		_, c, _ := tab.Lookup(g % 1024)
		total += c
		n++
	}
	mean := float64(total) / float64(n)
	if mean > 2.5 {
		t.Fatalf("mean access cycles = %.2f, want near 1", mean)
	}
}
