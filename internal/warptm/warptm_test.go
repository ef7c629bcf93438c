package warptm

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
)

// fakeTransport mirrors the crossbar's FIFO property with a fixed latency.
type fakeTransport struct {
	eng     *sim.Engine
	latency sim.Cycle
	up      uint64
	down    uint64
}

func (f *fakeTransport) ToPartition(core, partition, bytes int, deliver func()) {
	f.up += uint64(bytes)
	f.eng.Schedule(f.latency, deliver)
}

func (f *fakeTransport) ToCore(partition, core, bytes int, deliver func()) {
	f.down += uint64(bytes)
	f.eng.Schedule(f.latency, deliver)
}

func (f *fakeTransport) BroadcastToCores(partition, bytes int, deliver func(core int)) {
	f.eng.Schedule(f.latency, func() { deliver(0) })
}

type wtmHarness struct {
	eng   *sim.Engine
	img   *mem.Image
	vus   []*VU
	proto *Protocol
	trans *fakeTransport
}

func newWTMHarness(cfg Config, nParts int) *wtmHarness {
	eng := sim.NewEngine()
	img := mem.NewImage()
	amap := mem.AddressMap{Partitions: nParts, LineBytes: 128}
	trans := &fakeTransport{eng: eng, latency: 5}
	h := &wtmHarness{eng: eng, img: img, trans: trans}
	rng := sim.NewRNG(3)
	pcfg := mem.DefaultPartitionConfig()
	pcfg.LLCBytes = 16 << 10
	for i := 0; i < nParts; i++ {
		p := mem.NewPartition(i, eng, img, pcfg)
		h.vus = append(h.vus, NewVU(cfg, eng, p, rng.Fork(uint64(i))))
	}
	h.proto = NewProtocol(cfg, eng, amap, trans, h.vus, img)
	h.proto.Record = true
	return h
}

// access performs a single-lane tx access and records it in the log.
func (h *wtmHarness) access(t *testing.T, w *tm.WarpTx, isWrite bool, addr, val uint64) tm.AccessResult {
	t.Helper()
	var res []tm.AccessResult
	h.eng.Schedule(0, func() {
		h.proto.Access(w, isWrite, []tm.LaneAccess{{Lane: 0, Addr: addr, Value: val}},
			func(r []tm.AccessResult) { res = r })
	})
	h.eng.Run(0)
	if len(res) != 1 {
		t.Fatal("access did not complete")
	}
	if !res[0].Abort {
		if isWrite {
			w.Log.RecordWrite(0, addr, val)
		} else {
			w.Log.RecordRead(0, addr, res[0].Value)
		}
	}
	return res[0]
}

// commit commits lane 0 and returns the outcome.
func (h *wtmHarness) commit(t *testing.T, w *tm.WarpTx) tm.CommitOutcome {
	t.Helper()
	var out *tm.CommitOutcome
	h.eng.Schedule(0, func() {
		h.proto.Commit(w, isa.LaneMask(0).Set(0), 0, func(o tm.CommitOutcome) { out = &o })
	})
	h.eng.Run(0)
	if out == nil {
		t.Fatal("commit did not resume")
	}
	return *out
}

func (h *wtmHarness) newTx(gwid int) *tm.WarpTx {
	w := &tm.WarpTx{GWID: gwid, Core: 0, Log: tm.NewTxLog(), StartCycle: h.eng.Now()}
	h.proto.Begin(w)
	return w
}

func TestWTMReadWriteCommit(t *testing.T) {
	h := newWTMHarness(DefaultConfig(), 2)
	h.img.Write(0x100, 5)
	w := h.newTx(1)
	r := h.access(t, w, false, 0x100, 0)
	if r.Abort || r.Value != 5 {
		t.Fatalf("load = %+v", r)
	}
	h.access(t, w, true, 0x100, 9)
	if h.img.Read(0x100) != 5 {
		t.Fatal("lazy versioning violated: store visible before commit")
	}
	out := h.commit(t, w)
	if out.FailedLanes != 0 {
		t.Fatalf("commit failed: %+v", out)
	}
	if h.img.Read(0x100) != 9 {
		t.Fatal("commit did not write data")
	}
}

func TestWTMValidationFailureAborts(t *testing.T) {
	h := newWTMHarness(DefaultConfig(), 2)
	h.img.Write(0x100, 5)
	// Tx A reads 0x100, then tx B writes and commits it; A's validation
	// must fail.
	a := h.newTx(1)
	h.access(t, a, false, 0x100, 0)

	b := h.newTx(2)
	h.access(t, b, true, 0x100, 7)
	if out := h.commit(t, b); out.FailedLanes != 0 {
		t.Fatal("b should commit")
	}

	a2 := h.access(t, a, true, 0x108, 1) // make A a writer so it validates
	if a2.Abort {
		t.Fatal("store should not abort in LL")
	}
	out := h.commit(t, a)
	if !out.FailedLanes.Bit(0) {
		t.Fatal("stale read passed value validation")
	}
	if h.img.Read(0x108) != 0 {
		t.Fatal("failed lane's write leaked")
	}
}

func TestWTMSilentValueValidationABA(t *testing.T) {
	// Value-based validation admits ABA: if memory returns to the logged
	// value, validation passes. This is faithful to KiloTM/WarpTM.
	h := newWTMHarness(DefaultConfig(), 2)
	h.img.Write(0x100, 5)
	a := h.newTx(1)
	h.access(t, a, false, 0x100, 0)

	b := h.newTx(2)
	h.access(t, b, true, 0x100, 7)
	h.commit(t, b)
	c := h.newTx(3)
	h.access(t, c, true, 0x100, 5) // restore original value
	h.commit(t, c)

	h.access(t, a, true, 0x140, 1)
	out := h.commit(t, a)
	if out.FailedLanes != 0 {
		t.Fatal("ABA history failed validation (value-based validation should accept it)")
	}
}

func TestWTMTCDSilentCommit(t *testing.T) {
	h := newWTMHarness(DefaultConfig(), 2)
	h.img.Write(0x100, 5)
	// Warm up time so StartCycle > 0.
	h.eng.Schedule(100, func() {})
	h.eng.Run(0)
	w := h.newTx(1)
	h.access(t, w, false, 0x100, 0)
	upBefore := h.trans.up
	out := h.commit(t, w)
	if out.FailedLanes != 0 {
		t.Fatal("read-only commit failed")
	}
	if h.proto.SilentCommits != 1 {
		t.Fatalf("silent commits = %d, want 1", h.proto.SilentCommits)
	}
	if h.trans.up != upBefore {
		t.Fatal("silent commit generated validation traffic")
	}
}

func TestWTMTCDUnsafeAfterRecentWrite(t *testing.T) {
	h := newWTMHarness(DefaultConfig(), 2)
	// Writer commits 0x100 first.
	b := h.newTx(2)
	h.access(t, b, true, 0x100, 7)
	h.commit(t, b)
	// Reader starts *before* querying: its StartCycle predates... we create
	// it after, so last write < start; instead create reader before commit.
	c := h.newTx(3)
	// A second writer commits while c is running.
	d := h.newTx(4)
	h.access(t, d, true, 0x100, 9)
	h.commit(t, d)
	// Now c reads 0x100: the line was written after c started.
	h.access(t, c, false, 0x100, 0)
	h.commit(t, c)
	if h.proto.SilentCommits != 0 {
		t.Fatal("TCD allowed a silent commit of a recently written line")
	}
}

func TestWTMCommitIDOrderingAcrossPartitions(t *testing.T) {
	// Two txs writing to different partitions must still commit in id order
	// at every VU (empty messages keep the sequence).
	h := newWTMHarness(DefaultConfig(), 3)
	a := h.newTx(1)
	h.access(t, a, true, 0x100, 1)
	b := h.newTx(2)
	h.access(t, b, true, 0x2000, 2)
	var aDone, bDone bool
	h.eng.Schedule(0, func() {
		h.proto.Commit(a, isa.LaneMask(0).Set(0), 0, func(tm.CommitOutcome) { aDone = true })
	})
	h.eng.Schedule(1, func() {
		h.proto.Commit(b, isa.LaneMask(0).Set(0), 0, func(tm.CommitOutcome) { bDone = true })
	})
	h.eng.Run(0)
	if !aDone || !bDone {
		t.Fatal("commits did not complete (id sequence stuck?)")
	}
	for _, vu := range h.vus {
		if len(vu.inFlight) != 0 {
			t.Fatal("in-flight txs leaked")
		}
	}
}

func TestWTMHazardSerializesOverlap(t *testing.T) {
	// B validates a read of a line A is committing: B must see A's value
	// (hazard forces B's validation after A's apply), so B's logged read of
	// the old value fails.
	h := newWTMHarness(DefaultConfig(), 2)
	h.img.Write(0x100, 1)
	a := h.newTx(1)
	h.access(t, a, false, 0x100, 0)
	h.access(t, a, true, 0x100, 2)
	bTx := h.newTx(2)
	h.access(t, bTx, false, 0x100, 0) // reads 1
	h.access(t, bTx, true, 0x140, 3)
	var aOut, bOut *tm.CommitOutcome
	h.eng.Schedule(0, func() {
		h.proto.Commit(a, isa.LaneMask(0).Set(0), 0, func(o tm.CommitOutcome) { aOut = &o })
	})
	h.eng.Schedule(0, func() {
		h.proto.Commit(bTx, isa.LaneMask(0).Set(0), 0, func(o tm.CommitOutcome) { bOut = &o })
	})
	h.eng.Run(0)
	if aOut == nil || bOut == nil {
		t.Fatal("commits incomplete")
	}
	if aOut.FailedLanes != 0 {
		t.Fatal("a should commit")
	}
	if !bOut.FailedLanes.Bit(0) {
		t.Fatal("b read a value that a overwrote; hazard-ordered validation must fail it")
	}
	if h.img.Read(0x140) != 0 {
		t.Fatal("b's write leaked")
	}
}

func TestWTMELEagerAbortAtAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Eager = true
	h := newWTMHarness(cfg, 2)
	h.img.Write(0x100, 1)
	a := h.newTx(1)
	h.access(t, a, false, 0x100, 0) // logs value 1

	b := h.newTx(2)
	h.access(t, b, true, 0x100, 9)
	h.commit(t, b)

	// A's next access detects the conflict immediately (no commit needed).
	r := h.access(t, a, false, 0x140, 0)
	if !r.Abort || r.Cause != tm.CauseValidation {
		t.Fatalf("EL access = %+v, want early validation abort", r)
	}
	if h.proto.EarlyAborts == 0 {
		t.Fatal("early abort not counted")
	}
}

func TestWTMSerializabilityUnderContention(t *testing.T) {
	h := newWTMHarness(DefaultConfig(), 3)
	accounts := make([]uint64, 6)
	for i := range accounts {
		accounts[i] = uint64(0x1000 + i*8)
		h.img.Write(accounts[i], 100)
	}
	initial := h.img.Snapshot()
	rng := sim.NewRNG(17)
	for round := 0; round < 40; round++ {
		gwid := 1 + rng.Intn(4)
		src := accounts[rng.Intn(len(accounts))]
		dst := accounts[rng.Intn(len(accounts))]
		if src == dst {
			continue
		}
		for attempt := 0; attempt < 25; attempt++ {
			w := h.newTx(gwid)
			sv := h.access(t, w, false, src, 0)
			dv := h.access(t, w, false, dst, 0)
			if sv.Abort || dv.Abort {
				continue
			}
			h.access(t, w, true, src, sv.Value-1)
			h.access(t, w, true, dst, dv.Value+1)
			out := h.commit(t, w)
			if out.FailedLanes == 0 {
				break
			}
		}
	}
	var total uint64
	for _, a := range accounts {
		total += h.img.Read(a)
	}
	if total != 600 {
		t.Fatalf("balance = %d, want 600", total)
	}
	if err := tm.CheckSerializable(initial, h.img, h.proto.Committed); err != nil {
		t.Fatalf("serializability violated: %v", err)
	}
}

func TestTCDNeverUnderestimates(t *testing.T) {
	rng := sim.NewRNG(5)
	tcd := NewTCD(4, 64, rng)
	last := map[uint64]sim.Cycle{}
	for i := 0; i < 2000; i++ {
		line := uint64(rng.Intn(300))
		when := sim.Cycle(i)
		tcd.RecordWrite(line, when)
		last[line] = when
	}
	for line, want := range last {
		if got := tcd.LastWrite(line); got < want {
			t.Fatalf("line %d last write underestimated: %d < %d", line, got, want)
		}
	}
	if tcd.LastWrite(9999) > 1999 {
		t.Fatal("unwritten line reported later than any write")
	}
}
