package warptm

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/tm"
)

// Gate: a steady-state WarpTM step — a transactional load and store, a
// validating commit (value validation, the in-order decision, confirm,
// commit-unit apply and ack) and a silent read-only commit — runs without
// touching the allocator. Access states, word requests, commit objects with
// their per-partition messages, VU txStates and retire events are pooled
// with prebuilt callbacks, so the first step warms the pools and the rest
// are free.
func TestWarpTMStepAllocs(t *testing.T) {
	// Three partitions: the two-address footprint leaves at least one empty
	// subcommit, which retires through the VU's pooled event.
	h := newWTMHarness(DefaultConfig(), 3)
	h.proto.Record = false
	// Start past cycle 0 so never-written lines read as TCD-safe.
	h.eng.Schedule(100, func() {})
	h.eng.Run(0)

	const readAddr, writeAddr, silentAddr = 0x100, 0x2000, 0x4000
	h.img.Write(readAddr, 5)
	h.img.Write(silentAddr, 6)
	w := &tm.WarpTx{GWID: 1, Core: 0, Log: tm.NewTxLog()}
	load := []tm.LaneAccess{{Lane: 0, Addr: readAddr}}
	store := []tm.LaneAccess{{Lane: 0, Addr: writeAddr, Value: 7}}
	silentLoad := []tm.LaneAccess{{Lane: 0, Addr: silentAddr}}

	var got tm.AccessResult
	var out tm.CommitOutcome
	resumed := 0
	onAccess := func(rs []tm.AccessResult) { got = rs[0] }
	resume := func(o tm.CommitOutcome) { out = o; resumed++ }
	issueLoad := func() { h.proto.Access(w, false, load, onAccess) }
	issueStore := func() { h.proto.Access(w, true, store, onAccess) }
	issueSilentLoad := func() { h.proto.Access(w, false, silentLoad, onAccess) }
	doCommit := func() { h.proto.Commit(w, isa.LaneMask(0).Set(0), 0, resume) }
	run := func(fn func()) {
		h.eng.Schedule(0, fn)
		h.eng.Run(0)
	}
	begin := func() {
		w.Log.Reset()
		w.StartCycle = h.eng.Now()
		h.proto.Begin(w)
	}

	step := func() {
		begin()
		run(issueLoad)
		w.Log.RecordRead(0, readAddr, got.Value)
		run(issueStore)
		w.Log.RecordWrite(0, writeAddr, 7)
		run(doCommit)
		if out.FailedLanes != 0 {
			t.Fatalf("validating commit failed: %+v", out)
		}
		begin()
		run(issueSilentLoad)
		w.Log.RecordRead(0, silentAddr, got.Value)
		run(doCommit)
	}
	step() // warm the pools, maps, LLC lines and engine slab
	validations := func() (n uint64) {
		for _, vu := range h.vus {
			n += vu.Validations
		}
		return n
	}
	if resumed != 2 || h.proto.SilentCommits != 1 || validations() == 0 {
		t.Fatalf("warm-up: %d resumes, %d silent commits, %d validations; want 2, 1, >0",
			resumed, h.proto.SilentCommits, validations())
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("WarpTM load+store+validating commit+silent commit allocates %.1f per step, want 0", allocs)
	}
	if h.proto.SilentCommits != 102 || h.img.Read(writeAddr) != 7 {
		t.Fatalf("%d silent commits over 102 steps (want 102), write-back %d", h.proto.SilentCommits, h.img.Read(writeAddr))
	}
	for i, vu := range h.vus {
		if vu.InFlight() != 0 {
			t.Fatalf("vu %d holds %d in-flight commits after the steps", i, vu.InFlight())
		}
	}
}
