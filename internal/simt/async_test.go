package simt

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/tm"
)

func TestAsyncAbortMarksLanesForRetry(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x3000 + 8*i)
	}
	p := isa.NewBuilder().
		TxBegin().
		Load(1, addrs).
		Compute(50). // window during which the async abort arrives
		Store(1, addrs).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	// Deliver an async abort for lanes 0-3 while the warp computes.
	h.core.Start()
	h.eng.Schedule(30, func() {
		h.core.AsyncAbort(tm.AbortNotice{
			GWID:  0,
			Lanes: isa.LaneMask(0b1111),
			Cause: tm.CauseEarlyAbort,
		})
	})
	h.eng.Run(5_000_000)
	if !h.core.AllDone() {
		t.Fatalf("stuck: %v", h.core.StuckWarps())
	}
	if h.core.Stats.AbortsByCause[tm.CauseEarlyAbort] != 4 {
		t.Fatalf("early aborts = %d, want 4", h.core.Stats.AbortsByCause[tm.CauseEarlyAbort])
	}
	// All 32 lanes must still commit (aborted ones after retry).
	if h.core.Stats.Commits != 32 {
		t.Fatalf("commits = %d, want 32", h.core.Stats.Commits)
	}
}

func TestAsyncAbortWholeWarpJumpsToCommit(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x4000 + 8*i)
	}
	p := isa.NewBuilder().
		TxBegin().
		Load(1, addrs).
		Compute(100).
		Store(1, addrs).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.core.Start()
	h.eng.Schedule(30, func() {
		h.core.AsyncAbort(tm.AbortNotice{GWID: 0, Lanes: isa.FullMask, Cause: tm.CauseEarlyAbort})
	})
	h.eng.Run(5_000_000)
	if !h.core.AllDone() {
		t.Fatalf("stuck: %v", h.core.StuckWarps())
	}
	if h.core.Stats.Commits != 32 {
		t.Fatalf("commits = %d", h.core.Stats.Commits)
	}
	if h.core.Stats.Aborts < 32 {
		t.Fatalf("aborts = %d, want >= 32 (whole warp early-aborted once)", h.core.Stats.Aborts)
	}
}

func TestAsyncAbortIgnoredDuringCommit(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x5000 + 8*i)
	}
	p := isa.NewBuilder().
		TxBegin().
		Store(1, addrs).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.core.Start()
	// Run to completion, then deliver a stale notice: must be a no-op.
	h.eng.Run(5_000_000)
	h.core.AsyncAbort(tm.AbortNotice{GWID: 0, Lanes: isa.FullMask, Cause: tm.CauseEarlyAbort})
	if h.core.Stats.AbortsByCause[tm.CauseEarlyAbort] != 0 {
		t.Fatal("stale notice aborted lanes")
	}
	// Out-of-range gwid must be ignored too.
	h.core.AsyncAbort(tm.AbortNotice{GWID: 999, Lanes: isa.FullMask})
}

func TestNonBlockingStoreOverlapsCompute(t *testing.T) {
	// A store followed by compute: with fire-and-forget stores the total
	// time is max(store, compute)-ish, not the sum. We just verify the
	// store landed and no fence was needed.
	addr := uniformAddr(0x6000)
	p := isa.NewBuilder().
		StoreImm(uniformImm(5), addr).
		Compute(100).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0x6000] != 5 {
		t.Fatal("store lost")
	}
}

func TestLoadAfterStoreScoreboard(t *testing.T) {
	// RAW through memory: the load of a word with an outstanding store must
	// return the stored value, never the stale one.
	addr := uniformAddr(0x7000)
	p := isa.NewBuilder().
		StoreImm(uniformImm(7), addr).
		Load(1, addr).
		Store(1, uniformAddr(0x7100)).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0x7100] != 7 {
		t.Fatalf("load bypassed outstanding store: got %d", h.mem.words[0x7100])
	}
}

func TestCritSectionFencesBodyStores(t *testing.T) {
	// Body: store to data; after release, another lane's CS body reads the
	// data — the fence guarantees it sees the committed value. With all 32
	// lanes using one lock and read-modify-write, the counter is exact.
	shared := uniformAddr(0x8000)
	locks := make([][]uint64, isa.WarpWidth)
	for i := range locks {
		locks[i] = []uint64{0x8100}
	}
	body := isa.NewBuilder().
		Load(1, shared).
		AddImmScalar(1, 1, 1).
		Store(1, shared). // fire-and-forget; fence must drain before unlock
		Ops()
	p := isa.NewBuilder().CritSection(locks, body).MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0x8000] != 32 {
		t.Fatalf("counter = %d, want 32 (body store escaped the lock)", h.mem.words[0x8000])
	}
}
