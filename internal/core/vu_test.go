package core

import (
	"testing"

	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
)

type vuHarness struct {
	eng  *sim.Engine
	part *mem.Partition
	vu   *VU
	cu   *CU
}

func newVUHarness() *vuHarness {
	eng := sim.NewEngine()
	pcfg := mem.DefaultPartitionConfig()
	pcfg.LLCBytes = 16 << 10
	part := mem.NewPartition(0, eng, mem.NewImage(), pcfg)
	cfg := DefaultConfig()
	vu := NewVU(cfg, eng, part, 256, 64, sim.NewRNG(21))
	cu := NewCU(cfg, eng, part, vu)
	return &vuHarness{eng: eng, part: part, vu: vu, cu: cu}
}

// run submits a request and runs the engine until it replies.
func (h *vuHarness) run(t *testing.T, gwid int, warpts uint64, addr uint64, isWrite bool) Reply {
	t.Helper()
	var rep *Reply
	h.eng.Schedule(0, func() {
		h.vu.Submit(&Request{GWID: gwid, Warpts: warpts, Addr: addr, IsWrite: isWrite,
			Reply: func(r Reply) { rep = &r }})
	})
	h.eng.Run(0)
	if rep == nil {
		t.Fatal("request did not complete (queued without release?)")
	}
	return *rep
}

// submitAsync submits without draining the engine.
func (h *vuHarness) submitAsync(gwid int, warpts uint64, addr uint64, isWrite bool, reply func(Reply)) {
	h.eng.Schedule(0, func() {
		h.vu.Submit(&Request{GWID: gwid, Warpts: warpts, Addr: addr, IsWrite: isWrite, Reply: reply})
	})
}

func TestVULoadSuccessUpdatesRTS(t *testing.T) {
	h := newVUHarness()
	h.part.Image.Write(0x100, 77)
	rep := h.run(t, 1, 20, 0x100, false)
	if rep.Status != StatusSuccess || rep.Value != 77 {
		t.Fatalf("reply = %+v", rep)
	}
	e, _, _ := h.vu.Meta.Lookup(h.vu.cfg.GranuleOf(0x100))
	if e.RTS != 20 {
		t.Fatalf("rts = %d, want 20", e.RTS)
	}
}

func TestVUStoreReservesGranule(t *testing.T) {
	h := newVUHarness()
	rep := h.run(t, 3, 10, 0x200, true)
	if rep.Status != StatusSuccess {
		t.Fatalf("reply = %+v", rep)
	}
	e, _, _ := h.vu.Meta.Lookup(h.vu.cfg.GranuleOf(0x200))
	if e.WTS != 11 || e.Owner != 3 || e.Writes != 1 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestVUStoreOwnerBypassIncrements(t *testing.T) {
	h := newVUHarness()
	h.run(t, 3, 10, 0x200, true)
	rep := h.run(t, 3, 10, 0x208, true) // same 32B granule, same warp
	if rep.Status != StatusSuccess {
		t.Fatalf("owner bypass failed: %+v", rep)
	}
	e, _, _ := h.vu.Meta.Lookup(h.vu.cfg.GranuleOf(0x200))
	if e.Writes != 2 || e.WTS != 11 {
		t.Fatalf("entry = %+v (wts must not change on bypass)", e)
	}
}

func TestVULoadWARAbort(t *testing.T) {
	h := newVUHarness()
	h.run(t, 1, 20, 0x100, true) // wts becomes 21
	// Commit warp 1 so the granule is unlocked but logically newer.
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{{Addr: 0x100, Data: 5, Writes: 1, Commit: true}}, nil)
	})
	h.eng.Run(0)
	rep := h.run(t, 2, 10, 0x100, false) // warpts 10 < wts 21
	if rep.Status != StatusAbort || rep.Cause != tm.CauseWAR {
		t.Fatalf("reply = %+v, want WAR abort", rep)
	}
	if rep.AbortTS != 21 {
		t.Fatalf("abort ts = %d, want 21 (the observed wts)", rep.AbortTS)
	}
}

func TestVUStoreAbortOnNewerRead(t *testing.T) {
	h := newVUHarness()
	h.run(t, 1, 30, 0x100, false) // rts = 30
	rep := h.run(t, 2, 10, 0x100, true)
	if rep.Status != StatusAbort || rep.Cause != tm.CauseWAWRAW {
		t.Fatalf("reply = %+v, want WAW/RAW abort", rep)
	}
	if rep.AbortTS != 30 {
		t.Fatalf("abort ts = %d, want 30 (max of wts, rts)", rep.AbortTS)
	}
}

func TestVUStoreAllowsEqualRTS(t *testing.T) {
	// Fig 7: a transaction may write a line whose rts equals its own warpts
	// (its own earlier read set it).
	h := newVUHarness()
	h.run(t, 1, 20, 0x100, false)
	rep := h.run(t, 1, 20, 0x100, true)
	if rep.Status != StatusSuccess {
		t.Fatalf("write after own read rejected: %+v", rep)
	}
}

func TestVUQueueRAWThenRelease(t *testing.T) {
	h := newVUHarness()
	h.part.Image.Write(0x100, 7)
	h.run(t, 1, 10, 0x100, true) // warp 1 reserves (wts 11)
	var rep *Reply
	h.submitAsync(2, 15, 0x100, false, func(r Reply) { rep = &r })
	h.eng.Run(0)
	if rep != nil {
		t.Fatalf("younger load should have queued, got %+v", rep)
	}
	if h.vu.Stall.Occupancy() != 1 {
		t.Fatal("request not in stall buffer")
	}
	// Commit warp 1 with new data; queued load must retry and see it.
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{{Addr: 0x100, Data: 99, Writes: 1, Commit: true}}, nil)
	})
	h.eng.Run(0)
	if rep == nil || rep.Status != StatusSuccess || rep.Value != 99 {
		t.Fatalf("retried load = %+v, want success with committed value 99", rep)
	}
}

func TestVUQueueWAWThenReleaseAcquires(t *testing.T) {
	h := newVUHarness()
	h.run(t, 1, 10, 0x100, true)
	var rep *Reply
	h.submitAsync(2, 15, 0x100, true, func(r Reply) { rep = &r })
	h.eng.Run(0)
	if rep != nil {
		t.Fatal("younger store should queue")
	}
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{{Addr: 0x100, Data: 1, Writes: 1, Commit: true}}, nil)
	})
	h.eng.Run(0)
	if rep == nil || rep.Status != StatusSuccess {
		t.Fatalf("retried store = %+v", rep)
	}
	e, _, _ := h.vu.Meta.Lookup(h.vu.cfg.GranuleOf(0x100))
	if e.Owner != 2 || e.Writes != 1 || e.WTS != 16 {
		t.Fatalf("entry after handoff = %+v", e)
	}
}

func TestVUEqualTimestampContenderAborts(t *testing.T) {
	// A same-warpts contender fails the version check (wts = ts+1 > ts) and
	// aborts rather than queueing — the strict-youth queue invariant.
	h := newVUHarness()
	h.run(t, 1, 10, 0x100, true)
	rep := h.run(t, 2, 10, 0x100, false)
	if rep.Status != StatusAbort {
		t.Fatalf("equal-ts load should abort, got %+v", rep)
	}
}

func TestVUAbortedOwnerCleanupUnlocks(t *testing.T) {
	h := newVUHarness()
	h.part.Image.Write(0x100, 7)
	h.run(t, 1, 10, 0x100, true)
	// Cleanup (abort): no data write, reservation released.
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{{Addr: 0x100, Writes: 1, Commit: false}}, nil)
	})
	h.eng.Run(0)
	if h.part.Image.Read(0x100) != 7 {
		t.Fatal("aborted cleanup wrote data")
	}
	// Granule unlocked, but wts remains 11 (timestamps are not reverted).
	rep := h.run(t, 2, 15, 0x100, false)
	if rep.Status != StatusSuccess {
		t.Fatalf("post-cleanup load = %+v", rep)
	}
	e, _, _ := h.vu.Meta.Lookup(h.vu.cfg.GranuleOf(0x100))
	if e.WTS != 11 {
		t.Fatalf("wts reverted to %d", e.WTS)
	}
}

func TestVUStallBufferFullAborts(t *testing.T) {
	h := newVUHarness()
	cfg := DefaultConfig()
	cfg.StallLines, cfg.StallEntriesPerLine = 1, 1
	h.vu.Stall = NewStallBuffer(1, 1)
	h.run(t, 1, 10, 0x100, true)
	var r1, r2 *Reply
	h.submitAsync(2, 15, 0x100, false, func(r Reply) { r1 = &r })
	h.submitAsync(3, 16, 0x100, false, func(r Reply) { r2 = &r })
	h.eng.Run(0)
	if r1 != nil {
		t.Fatal("first contender should queue")
	}
	if r2 == nil || r2.Status != StatusAbort || r2.Cause != tm.CauseStallFull {
		t.Fatalf("second contender = %+v, want stall-full abort", r2)
	}
}

func TestVUMultipleWaitersAllReleased(t *testing.T) {
	// Two queued loads; the owner commits once. The retried first load takes
	// no lock, so the second must be woken in turn (wakeNext chain).
	h := newVUHarness()
	h.run(t, 1, 10, 0x100, true)
	var r1, r2 *Reply
	h.submitAsync(2, 15, 0x100, false, func(r Reply) { r1 = &r })
	h.submitAsync(3, 16, 0x100, false, func(r Reply) { r2 = &r })
	h.eng.Run(0)
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{{Addr: 0x100, Data: 4, Writes: 1, Commit: true}}, nil)
	})
	h.eng.Run(0)
	if r1 == nil || r2 == nil || r1.Status != StatusSuccess || r2.Status != StatusSuccess {
		t.Fatalf("waiters not all released: r1=%+v r2=%+v", r1, r2)
	}
}

func TestVUGranularityFalseSharing(t *testing.T) {
	// Two warps writing different words of the same 32B granule conflict;
	// with 16B granularity they would not.
	h := newVUHarness()
	h.run(t, 1, 10, 0x100, true)
	var rep *Reply
	h.submitAsync(2, 15, 0x118, true, func(r Reply) { rep = &r }) // same 32B granule
	h.eng.Run(0)
	if rep != nil {
		t.Fatal("false-sharing store should have queued behind the reservation")
	}
}

func TestVUAccessCycleStats(t *testing.T) {
	h := newVUHarness()
	for i := 0; i < 50; i++ {
		h.run(t, 1, uint64(100+i), uint64(0x1000+i*64), false)
	}
	if h.vu.AccessCycles.Total() != 50 {
		t.Fatalf("recorded %d accesses", h.vu.AccessCycles.Total())
	}
	if m := h.vu.AccessCycles.Mean(); m < 1 || m > 2 {
		t.Fatalf("mean access cycles = %v", m)
	}
}

func TestCUCoalescingBandwidth(t *testing.T) {
	h := newVUHarness()
	// Reserve 4 words spanning two 32B regions (0x100 and 0x120).
	addrs := []uint64{0x100, 0x108, 0x120, 0x128}
	for _, a := range addrs {
		h.run(t, 1, 10, a, true)
	}
	start := h.eng.Now()
	var doneAt sim.Cycle
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{
			{Addr: 0x100, Data: 1, Writes: 1, Commit: true},
			{Addr: 0x108, Data: 2, Writes: 1, Commit: true},
			{Addr: 0x120, Data: 3, Writes: 1, Commit: true},
			{Addr: 0x128, Data: 4, Writes: 1, Commit: true},
		}, func() { doneAt = h.eng.Now() })
	})
	h.eng.Run(0)
	// Two coalesced 32B regions = 64 bytes at 32 B/cycle = 2 cycles.
	if doneAt-start != 2 {
		t.Fatalf("commit took %d cycles, want 2", doneAt-start)
	}
	if h.cu.BytesWritten != 64 {
		t.Fatalf("bytes written = %d", h.cu.BytesWritten)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		if got := h.part.Image.Read(addrs[i]); got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
	if h.vu.Meta.LockedEntries() != 0 {
		t.Fatal("reservations not fully released")
	}
}

func TestVUServiceRateSerializes(t *testing.T) {
	h := newVUHarness()
	var done int
	h.eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			addr := uint64(0x1000 + i*64)
			h.vu.Submit(&Request{GWID: 1, Warpts: 5, Addr: addr, IsWrite: true,
				Reply: func(Reply) { done++ }})
		}
	})
	end := h.eng.Run(0)
	if done != 10 {
		t.Fatalf("completed %d/10", done)
	}
	if end < 9 { // at 1 request/cycle the last starts at cycle 9
		t.Fatalf("ended at %d, service rate not enforced", end)
	}
}

// A reservation that changes hands must not leave the new owner's own
// requests queued behind it: warp 2 queues two stores to one granule behind
// warp 1; when warp 1 commits, the first store takes the reservation and the
// second, which waited on the old owner, must pass by owner bypass instead
// of waiting on its own warp forever.
func TestVUOwnRequestsWokenOnHandoff(t *testing.T) {
	h := newVUHarness()
	h.run(t, 1, 10, 0x100, true) // warp 1 reserves (wts 11)
	var r1, r2 *Reply
	h.submitAsync(2, 15, 0x100, true, func(r Reply) { r1 = &r })
	h.submitAsync(2, 15, 0x108, true, func(r Reply) { r2 = &r }) // same 32 B granule
	h.eng.Run(0)
	if r1 != nil || r2 != nil || h.vu.Stall.Occupancy() != 2 {
		t.Fatalf("both younger stores should queue: r1=%+v r2=%+v", r1, r2)
	}
	h.eng.Schedule(0, func() {
		h.cu.Submit([]CommitEntry{{Addr: 0x100, Data: 1, Writes: 1, Commit: true}}, nil)
	})
	h.eng.Run(0)
	if r1 == nil || r1.Status != StatusSuccess {
		t.Fatalf("first store = %+v, want success", r1)
	}
	if r2 == nil || r2.Status != StatusSuccess {
		t.Fatalf("second store = %+v, want success by owner bypass after warp 1 commits", r2)
	}
	e, _, _ := h.vu.Meta.Lookup(h.vu.cfg.GranuleOf(0x100))
	if e.Owner != 2 || e.Writes != 2 || h.vu.Stall.Occupancy() != 0 {
		t.Fatalf("entry after handoff = %+v, %d still queued", e, h.vu.Stall.Occupancy())
	}
}
