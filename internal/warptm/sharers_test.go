package warptm

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/tm"
)

// A 32-lane load whose lanes share five words (lane i reads word i mod 5)
// sends one request per word, and each reply resolves exactly the lanes
// reading its word. Word 2 is rewritten after the warp began, so its lanes
// read the new value and lose TCD's silent commit. Under WarpTM-EL, lanes 7
// and 13 hold stale reads in the log, so the load and then a 32-lane store
// abort exactly those two lanes, counting one early abort per lane.
func TestSharedWordLoadResults(t *testing.T) {
	word := func(k int) uint64 { return 0x1000 + uint64(k)*0x80 }
	for _, eager := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Eager = eager
		h := newWTMHarness(cfg, 2)
		h.eng.Schedule(100, func() {}) // never-written lines read as TCD-safe
		h.eng.Run(0)
		for k := 0; k < 5; k++ {
			h.img.Write(word(k), 100+uint64(k))
		}
		w := h.newTx(1)
		w.Log.RecordRead(6, word(0), 100)  // still current
		w.Log.RecordRead(7, word(2), 102)  // stale once word 2 is rewritten
		w.Log.RecordRead(13, word(4), 999) // stale
		w.Log.RecordRead(20, word(2), 202) // current after the rewrite
		writer := h.newTx(9)
		h.access(t, writer, true, word(2), 202)
		if out := h.commit(t, writer); out.FailedLanes != 0 {
			t.Fatalf("eager %v: writer failed: %+v", eager, out)
		}

		lanes := make([]tm.LaneAccess, isa.WarpWidth)
		for i := range lanes {
			lanes[i] = tm.LaneAccess{Lane: i, Addr: word(i % 5), Value: 500 + uint64(i)}
		}
		upBefore := h.trans.up
		var res []tm.AccessResult
		issue := func(isWrite bool) {
			res = nil
			h.eng.Schedule(0, func() {
				h.proto.Access(w, isWrite, lanes, func(r []tm.AccessResult) { res = r })
			})
			h.eng.Run(0)
			if len(res) != len(lanes) {
				t.Fatalf("eager %v, write %v: %d results for %d lanes", eager, isWrite, len(res), len(lanes))
			}
		}
		var stale isa.LaneMask
		if eager {
			stale = stale.Set(7).Set(13)
		}
		issue(false)
		if got := h.trans.up - upBefore; got != 5*tm.ReqBytes {
			t.Fatalf("eager %v: up traffic %d B, want 5 coalesced requests (%d B)", eager, got, 5*tm.ReqBytes)
		}
		values := [5]uint64{100, 101, 202, 103, 104}
		var unsafe isa.LaneMask
		for i, r := range res {
			want := tm.AccessResult{Lane: i, Value: values[i%5]}
			if stale.Bit(i) {
				want.Abort, want.Cause = true, tm.CauseValidation
			}
			if r != want {
				t.Errorf("eager %v: load lane %d: %+v, want %+v", eager, i, r, want)
			}
			if i%5 == 2 {
				unsafe = unsafe.Set(i)
			}
		}
		if got := h.proto.tcdUnsafe[1]; got != unsafe {
			t.Errorf("eager %v: TCD-unsafe lanes %032b, want %032b", eager, got, unsafe)
		}
		if got := h.proto.EarlyAborts; got != uint64(stale.Count()) {
			t.Errorf("eager %v: %d early aborts after the load, want %d", eager, got, stale.Count())
		}

		issue(true)
		for i, r := range res {
			want := tm.AccessResult{Lane: i}
			if stale.Bit(i) {
				want.Abort, want.Cause = true, tm.CauseValidation
			}
			if r != want {
				t.Errorf("eager %v: store lane %d: %+v, want %+v", eager, i, r, want)
			}
		}
		if got := h.proto.EarlyAborts; got != 2*uint64(stale.Count()) {
			t.Errorf("eager %v: %d early aborts after the store, want %d", eager, got, 2*stale.Count())
		}
	}
}
