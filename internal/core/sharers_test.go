package core

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/tm"
)

// A 32-lane load whose lanes share five words (lane i reads word i mod 5)
// sends one request per word, and each reply resolves exactly the lanes
// reading its word: a committed writer made words 1 and 3 logically newer,
// so their lanes WAR-abort with the writer's timestamp while the others
// read their word's value.
func TestSharedWordLoadResults(t *testing.T) {
	h := newProtoHarness(DefaultConfig(), 2)
	word := func(k int) uint64 { return 0x1000 + uint64(k)*0x80 }
	for k := 0; k < 5; k++ {
		h.img.Write(word(k), 100+uint64(k))
	}
	if !h.runTx(t, 9, nil, map[uint64]uint64{word(1): 201, word(3): 203}) {
		t.Fatal("setup tx aborted")
	}

	w := &tm.WarpTx{GWID: 1, Core: 0, Log: tm.NewTxLog()}
	h.proto.Begin(w)
	lanes := make([]tm.LaneAccess, isa.WarpWidth)
	for i := range lanes {
		lanes[i] = tm.LaneAccess{Lane: i, Addr: word(i % 5)}
	}
	upBefore := h.trans.up
	var res []tm.AccessResult
	h.eng.Schedule(0, func() {
		h.proto.Access(w, false, lanes, func(r []tm.AccessResult) { res = r })
	})
	h.eng.Run(0)
	if got := h.trans.up - upBefore; got != 5*tm.ReqBytes {
		t.Fatalf("up traffic %d B, want 5 coalesced requests (%d B)", got, 5*tm.ReqBytes)
	}
	// What each word's lanes read, as the per-lane resolution had it.
	want := [5]tm.AccessResult{
		{Value: 100},
		{Abort: true, Cause: tm.CauseWAR, AbortTS: 1},
		{Value: 102},
		{Abort: true, Cause: tm.CauseWAR, AbortTS: 1},
		{Value: 104},
	}
	if len(res) != len(lanes) {
		t.Fatalf("%d results for %d lanes", len(res), len(lanes))
	}
	var aborted isa.LaneMask
	for i, r := range res {
		exp := want[i%5]
		exp.Lane = i
		if r != exp {
			t.Errorf("lane %d: %+v, want %+v", i, r, exp)
		}
		if r.Abort {
			aborted = aborted.Set(i)
		}
	}
	if got := h.proto.pendAbortTS[1]; got != 1 {
		t.Errorf("pending abort timestamp %d, want 1", got)
	}
	h.eng.Schedule(0, func() {
		h.proto.Commit(w, isa.FullMask&^aborted, aborted, func(tm.CommitOutcome) {})
	})
	h.eng.Run(0)
	if lockedGranules(h.proto) != 0 {
		t.Fatal("reservations leaked")
	}
}
