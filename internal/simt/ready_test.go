package simt

import (
	"testing"

	"getm/internal/sim"
)

// rescanPick is the issue stage's warp choice as a rescan of every slot
// (the code the ready mask replaced): greedy-then-oldest, lastWarp if it is
// ready, else the lowest ready slot.
func rescanPick(c *Core, lastWarp *int) *Warp {
	if w := c.warps[*lastWarp]; w != nil && w.state == wReady {
		return w
	}
	for _, w := range c.warps {
		if w != nil && w.state == wReady {
			*lastWarp = w.slot
			return w
		}
	}
	return nil
}

// slotOf names a chosen warp by its slot; -1 is none.
func slotOf(w *Warp) int {
	if w == nil {
		return -1
	}
	return w.slot
}

// pickWarp and anyReady choose as the 48-slot rescan does over 10,000
// seeded sequences of warp-state changes, on the paper's 48 slots and on
// slot counts that end inside, at and past a 64-bit mask word. Some slots
// never get a warp, as at small workload scales.
func TestPickWarpMatchesRescan(t *testing.T) {
	rng := sim.NewRNG(48)
	states := []warpState{wIdle, wReady, wBlocked, wDone}
	sizes := []int{48, 48, 1, 63, 64, 65, 130}
	cores := make([]*Core, len(sizes))
	warps := make([][]*Warp, len(sizes))
	for i, n := range sizes {
		cores[i] = newCoreHarness(nil, func(c *Config) { c.WarpsPerCore = n }).core
		for slot := 0; slot < n; slot++ {
			warps[i] = append(warps[i], cores[i].newWarpFor(slot))
		}
	}
	for seq := 0; seq < 10_000; seq++ {
		c, all := cores[seq%len(sizes)], warps[seq%len(sizes)]
		n := len(all)
		var live []*Warp
		for slot, w := range all {
			w.setState(wIdle)
			c.warps[slot] = nil
			if rng.Intn(4) != 0 {
				c.warps[slot] = w
				live = append(live, w)
			}
		}
		if len(live) == 0 {
			continue
		}
		c.lastWarp = rng.Intn(n)
		last := c.lastWarp
		for op := 0; op < 40; op++ {
			live[rng.Intn(len(live))].setState(states[rng.Intn(len(states))])
			want := rescanPick(c, &last)
			if got := c.anyReady(); got != (want != nil) {
				t.Fatalf("seq %d op %d (%d slots): anyReady %v, rescan found %v", seq, op, n, got, want != nil)
			}
			if got := c.pickWarp(); got != want || c.lastWarp != last {
				t.Fatalf("seq %d op %d (%d slots): pickWarp chose slot %d (lastWarp %d), rescan slot %d (lastWarp %d)",
					seq, op, n, slotOf(got), c.lastWarp, slotOf(want), last)
			}
		}
	}
}
