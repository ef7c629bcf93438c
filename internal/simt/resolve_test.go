package simt

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/sim"
	"getm/internal/tm"
)

// resolveIntraWarpOracle is the lane-by-lane resolution resolveIntraWarp
// replaced: for each live lane in order, scan the whole log for the lane's
// entries and lose if any of them conflicts with a survivor so far.
func resolveIntraWarpOracle(log *tm.TxLog, live isa.LaneMask) (losers isa.LaneMask) {
	var survivors isa.LaneMask
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !live.Bit(lane) {
			continue
		}
		conflict := false
		for _, e := range log.Writes {
			if e.Lane == lane && log.Conflicts(lane, e.Addr, true)&survivors != 0 {
				conflict = true
				break
			}
		}
		if !conflict {
			for _, e := range log.Reads {
				if e.Lane == lane && log.Conflicts(lane, e.Addr, false)&survivors != 0 {
					conflict = true
					break
				}
			}
		}
		if conflict {
			losers = losers.Set(lane)
		} else {
			survivors = survivors.Set(lane)
		}
	}
	return losers
}

// The one-pass resolution picks exactly the oracle's losers on seeded random
// logs: 1–32 live lanes, entries of dead lanes too, addresses drawn from a
// small pool so that conflicts are common, and coalesced repeat writes.
func TestResolveIntraWarpMatchesOracle(t *testing.T) {
	const logs = 20000
	rng := sim.NewRNG(11)
	log := tm.NewTxLog()
	var sawLosers, sawNone int
	for i := 0; i < logs; i++ {
		log.Reset()
		pool := 1 + rng.Uint64n(48)
		entries := int(rng.Uint64n(96))
		for j := 0; j < entries; j++ {
			lane := int(rng.Uint64n(isa.WarpWidth))
			addr := 8 * rng.Uint64n(pool)
			if rng.Uint64n(3) == 0 {
				log.RecordWrite(lane, addr, rng.Uint64())
				if rng.Uint64n(4) == 0 {
					log.RecordWrite(lane, addr, rng.Uint64()) // coalesced
				}
			} else {
				log.RecordRead(lane, addr, rng.Uint64())
			}
		}
		var live isa.LaneMask
		for live == 0 {
			live = isa.LaneMask(rng.Uint64()) >> uint(rng.Uint64n(isa.WarpWidth))
		}
		want := resolveIntraWarpOracle(log, live)
		if got := resolveIntraWarp(log, live); got != want {
			t.Fatalf("log %d (live %032b, %d reads, %d writes): losers %032b, want %032b",
				i, live, len(log.Reads), len(log.Writes), got, want)
		}
		if want != 0 {
			sawLosers++
		} else {
			sawNone++
		}
	}
	t.Logf("%d logs with losers, %d without", sawLosers, sawNone)
	// The generator must exercise both outcomes, or the match shows little.
	if sawLosers < logs/10 || sawNone < logs/10 {
		t.Fatalf("%d logs with losers, %d without: the generator is lopsided", sawLosers, sawNone)
	}
}
