package eapg

import (
	"testing"
	"testing/quick"

	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
	"getm/internal/tmtest"
	"getm/internal/warptm"
)

type harness struct {
	eng     *sim.Engine
	img     *mem.Image
	proto   *Protocol
	notices []tm.AbortNotice
}

func newHarness(nParts int) *harness {
	eng := sim.NewEngine()
	img := mem.NewImage()
	amap := mem.AddressMap{Partitions: nParts, LineBytes: 128}
	trans := tmtest.NewTransport(eng, 5, 2)
	cfg := warptm.DefaultConfig()
	rng := sim.NewRNG(31)
	var vus []*warptm.VU
	pcfg := mem.DefaultPartitionConfig()
	pcfg.LLCBytes = 16 << 10
	for i := 0; i < nParts; i++ {
		p := mem.NewPartition(i, eng, img, pcfg)
		vus = append(vus, warptm.NewVU(cfg, eng, p, rng.Fork(uint64(i))))
	}
	inner := warptm.NewProtocol(cfg, eng, amap, trans, vus, img)
	h := &harness{eng: eng, img: img}
	h.proto = New(inner, eng, trans, 2)
	h.proto.SetAbortSink(func(n tm.AbortNotice) { h.notices = append(h.notices, n) })
	return h
}

func (h *harness) newTx(gwid, core int) *tm.WarpTx {
	w := &tm.WarpTx{GWID: gwid, Core: core, Log: tm.NewTxLog(), StartCycle: h.eng.Now()}
	h.proto.Begin(w)
	return w
}

func (h *harness) access(t *testing.T, w *tm.WarpTx, isWrite bool, addr, val uint64) tm.AccessResult {
	t.Helper()
	var res []tm.AccessResult
	h.eng.Schedule(0, func() {
		h.proto.Access(w, isWrite, []tm.LaneAccess{{Lane: 0, Addr: addr, Value: val}},
			func(r []tm.AccessResult) { res = r })
	})
	h.eng.Run(0)
	if len(res) != 1 {
		t.Fatal("access did not complete (paused forever?)")
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

func (h *harness) commit(t *testing.T, w *tm.WarpTx) tm.CommitOutcome {
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

func TestSignatureProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		var s Signature
		for _, a := range addrs {
			s = s.AddWord(uint64(a) &^ 7)
		}
		for _, a := range addrs {
			if s.AddWord(uint64(a)&^7) != s {
				return false // no false negatives allowed
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyAbortDoomedReader(t *testing.T) {
	h := newHarness(2)
	h.img.Write(0x100, 1)
	// Reader on core 1 logs a read of 0x100.
	r := h.newTx(1, 1)
	h.access(t, r, false, 0x100, 0)
	// Writer on core 0 commits a write to 0x100: broadcast must doom the
	// reader.
	wtx := h.newTx(2, 0)
	h.access(t, wtx, true, 0x100, 9)
	h.commit(t, wtx)
	if len(h.notices) == 0 {
		t.Fatal("no early-abort notice delivered")
	}
	n := h.notices[0]
	if n.GWID != 1 || !n.Lanes.Bit(0) || n.Cause != tm.CauseEarlyAbort {
		t.Fatalf("notice = %+v", n)
	}
	if h.proto.EarlyAborts == 0 || h.proto.Broadcasts != 1 {
		t.Fatalf("counters: early=%d bcast=%d", h.proto.EarlyAborts, h.proto.Broadcasts)
	}
}

func TestNoEarlyAbortForDisjointReader(t *testing.T) {
	h := newHarness(2)
	r := h.newTx(1, 1)
	h.access(t, r, false, 0x5000, 0)
	wtx := h.newTx(2, 0)
	h.access(t, wtx, true, 0x100, 9)
	h.commit(t, wtx)
	// (A bloom false positive is possible but the two words used here do
	// not collide with the Mix64 hash.)
	if len(h.notices) != 0 {
		t.Fatalf("disjoint reader aborted: %+v", h.notices)
	}
}

func TestPauseNGoDefersConflictingAccess(t *testing.T) {
	h := newHarness(2)
	h.img.Write(0x100, 1)
	// Writer commits 0x100 but we inspect mid-flight state: start the
	// commit, then issue a conflicting access before it completes.
	wtx := h.newTx(2, 0)
	h.access(t, wtx, true, 0x100, 9)

	reader := h.newTx(3, 1)
	var commitDone, accessDone bool
	var readerRes []tm.AccessResult
	h.eng.Schedule(0, func() {
		h.proto.Commit(wtx, isa.LaneMask(0).Set(0), 0, func(tm.CommitOutcome) { commitDone = true })
	})
	// Conflicting access one cycle later, while the commit is in flight.
	h.eng.Schedule(1, func() {
		h.proto.Access(reader, false, []tm.LaneAccess{{Lane: 0, Addr: 0x100}},
			func(r []tm.AccessResult) { readerRes = r; accessDone = true })
	})
	h.eng.Run(0)
	if !commitDone || !accessDone {
		t.Fatal("commit or paused access never completed")
	}
	if h.proto.Pauses == 0 {
		t.Fatal("conflicting access was not paused")
	}
	// The paused access retried after the commit: it must see the new value.
	if readerRes[0].Abort || readerRes[0].Value != 9 {
		t.Fatalf("paused access result = %+v, want committed value 9", readerRes[0])
	}
}

func TestCommitStillWorksThroughWrapper(t *testing.T) {
	h := newHarness(2)
	w := h.newTx(1, 0)
	h.access(t, w, false, 0x200, 0)
	h.access(t, w, true, 0x200, 5)
	out := h.commit(t, w)
	if out.FailedLanes != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if h.img.Read(0x200) != 5 {
		t.Fatal("write not applied")
	}
}
