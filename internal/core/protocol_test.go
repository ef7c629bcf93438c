package core

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
)

// fakeTransport delivers messages with a small fixed latency, preserving
// point-to-point FIFO order (the property the real crossbar provides).
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

type protoHarness struct {
	eng   *sim.Engine
	img   *mem.Image
	parts []*mem.Partition
	vus   []*VU
	cus   []*CU
	proto *Protocol
	trans *fakeTransport
}

func newProtoHarness(cfg Config, nParts int) *protoHarness {
	eng := sim.NewEngine()
	img := mem.NewImage()
	amap := mem.AddressMap{Partitions: nParts, LineBytes: 128}
	trans := &fakeTransport{eng: eng, latency: 5}
	h := &protoHarness{eng: eng, img: img, trans: trans}
	rng := sim.NewRNG(99)
	pcfg := mem.DefaultPartitionConfig()
	pcfg.LLCBytes = 16 << 10
	for i := 0; i < nParts; i++ {
		p := mem.NewPartition(i, eng, img, pcfg)
		vu := NewVU(cfg, eng, p, cfg.PreciseEntries/nParts, cfg.ApproxEntries/nParts, rng.Fork(uint64(i)))
		h.parts = append(h.parts, p)
		h.vus = append(h.vus, vu)
		h.cus = append(h.cus, NewCU(cfg, eng, p, vu))
	}
	h.proto = NewProtocol(cfg, eng, amap, trans, h.vus, h.cus)
	h.proto.Record = true
	return h
}

// runTx executes a complete single-lane transaction: reads then writes, then
// commit. Returns false if any access aborted (commit then cleans up).
func (h *protoHarness) runTx(t *testing.T, gwid int, reads []uint64, writes map[uint64]uint64) bool {
	t.Helper()
	w := &tm.WarpTx{GWID: gwid, Core: 0, Log: tm.NewTxLog()}
	h.proto.Begin(w)
	aborted := false

	doAccess := func(isWrite bool, addr, val uint64) {
		var results []tm.AccessResult
		la := []tm.LaneAccess{{Lane: 0, Addr: addr, Value: val}}
		h.eng.Schedule(0, func() {
			h.proto.Access(w, isWrite, la, func(r []tm.AccessResult) { results = r })
		})
		h.eng.Run(0)
		if len(results) != 1 {
			t.Fatalf("access to %#x did not complete", addr)
		}
		if results[0].Abort {
			aborted = true
		} else if isWrite {
			w.Log.RecordWrite(0, addr, val)
		} else {
			w.Log.RecordRead(0, addr, results[0].Value)
		}
	}

	for _, a := range reads {
		if aborted {
			break
		}
		doAccess(false, a, 0)
	}
	if !aborted {
		for a, v := range writes {
			doAccess(true, a, v)
			if aborted {
				break
			}
		}
	}

	commitMask, abortMask := isa.LaneMask(0), isa.LaneMask(0)
	if aborted {
		abortMask = abortMask.Set(0)
	} else {
		commitMask = commitMask.Set(0)
	}
	resumed := false
	h.eng.Schedule(0, func() {
		h.proto.Commit(w, commitMask, abortMask, func(tm.CommitOutcome) { resumed = true })
	})
	h.eng.Run(0)
	if !resumed {
		t.Fatal("commit did not resume the warp")
	}
	return !aborted
}

func TestProtocolCommitWritesData(t *testing.T) {
	h := newProtoHarness(DefaultConfig(), 2)
	h.img.Write(0x100, 10)
	ok := h.runTx(t, 1, []uint64{0x100}, map[uint64]uint64{0x100: 42})
	if !ok {
		t.Fatal("uncontended tx aborted")
	}
	if got := h.img.Read(0x100); got != 42 {
		t.Fatalf("memory = %d, want 42", got)
	}
	if lockedGranules(h.proto) != 0 {
		t.Fatal("reservations leaked")
	}
	if len(h.proto.Committed) != 1 {
		t.Fatalf("recorded %d committed txs", len(h.proto.Committed))
	}
}

func TestProtocolAbortAdvancesWarpts(t *testing.T) {
	h := newProtoHarness(DefaultConfig(), 2)
	// Warp 1 at ts 0 writes 0x100 and commits (wts = 1).
	if !h.runTx(t, 1, nil, map[uint64]uint64{0x100: 1}) {
		t.Fatal("setup tx aborted")
	}
	// Warp 2 at ts 0 reads 0x100: WAR abort (wts 1 > ts 0); warpts must
	// advance past the observed wts.
	if h.runTx(t, 2, []uint64{0x100}, nil) {
		t.Fatal("conflicting read should abort")
	}
	if ts := h.proto.warpts[2]; ts != 2 {
		t.Fatalf("warpts = %d, want 2 (observed wts 1, +1)", ts)
	}
	// Retry at the advanced timestamp succeeds.
	if !h.runTx(t, 2, []uint64{0x100}, nil) {
		t.Fatal("retry at advanced warpts aborted")
	}
}

func TestProtocolAbortCleanupReleasesLocks(t *testing.T) {
	h := newProtoHarness(DefaultConfig(), 2)
	// Warp 9 writes 0x240 and commits, making its granule logically newer
	// (wts 1). Warp 1, still at ts 0, will lock 0x200 (a different 32B
	// granule) and then WAR-abort reading 0x240.
	if !h.runTx(t, 9, nil, map[uint64]uint64{0x240: 5}) {
		t.Fatal("setup aborted")
	}
	w := &tm.WarpTx{GWID: 1, Core: 0, Log: tm.NewTxLog()}
	h.proto.Begin(w)
	var res []tm.AccessResult
	h.eng.Schedule(0, func() {
		h.proto.Access(w, true, []tm.LaneAccess{{Lane: 0, Addr: 0x200, Value: 7}}, func(r []tm.AccessResult) { res = r })
	})
	h.eng.Run(0)
	if res[0].Abort {
		t.Fatal("first write unexpectedly aborted")
	}
	w.Log.RecordWrite(0, 0x200, 7)
	h.eng.Schedule(0, func() {
		h.proto.Access(w, false, []tm.LaneAccess{{Lane: 0, Addr: 0x240}}, func(r []tm.AccessResult) { res = r })
	})
	h.eng.Run(0)
	if !res[0].Abort {
		t.Fatal("read of newer granule should abort")
	}
	if lockedGranules(h.proto) == 0 {
		t.Fatal("lock should still be held until the warp's cleanup")
	}
	// Cleanup at the commit point releases the reservation without writing.
	h.eng.Schedule(0, func() {
		h.proto.Commit(w, 0, isa.LaneMask(0).Set(0), func(tm.CommitOutcome) {})
	})
	h.eng.Run(0)
	if lockedGranules(h.proto) != 0 {
		t.Fatal("cleanup did not release the reservation")
	}
	if h.img.Read(0x200) != 0 {
		t.Fatal("aborted write leaked to memory")
	}
}

func TestProtocolSerializability(t *testing.T) {
	h := newProtoHarness(DefaultConfig(), 3)
	initial := h.img.Snapshot()
	// A bank-transfer-like pattern over 8 accounts from 6 warps, with
	// retries until everything commits.
	accounts := make([]uint64, 8)
	for i := range accounts {
		accounts[i] = uint64(0x1000 + i*8)
		h.img.Write(accounts[i], 100)
	}
	initial = h.img.Snapshot()
	rng := sim.NewRNG(5)
	for round := 0; round < 30; round++ {
		gwid := 1 + rng.Intn(6)
		src := accounts[rng.Intn(len(accounts))]
		dst := accounts[rng.Intn(len(accounts))]
		if src == dst {
			continue
		}
		// Retry until committed, like the SIMT core would.
		for attempt := 0; attempt < 20; attempt++ {
			w := &tm.WarpTx{GWID: gwid, Core: 0, Log: tm.NewTxLog()}
			h.proto.Begin(w)
			ok := true
			var sv, dv uint64
			read := func(addr uint64) (uint64, bool) {
				var res []tm.AccessResult
				h.eng.Schedule(0, func() {
					h.proto.Access(w, false, []tm.LaneAccess{{Lane: 0, Addr: addr}}, func(r []tm.AccessResult) { res = r })
				})
				h.eng.Run(0)
				if res[0].Abort {
					return 0, false
				}
				w.Log.RecordRead(0, addr, res[0].Value)
				return res[0].Value, true
			}
			write := func(addr, val uint64) bool {
				var res []tm.AccessResult
				h.eng.Schedule(0, func() {
					h.proto.Access(w, true, []tm.LaneAccess{{Lane: 0, Addr: addr, Value: val}}, func(r []tm.AccessResult) { res = r })
				})
				h.eng.Run(0)
				if res[0].Abort {
					return false
				}
				w.Log.RecordWrite(0, addr, val)
				return true
			}
			if sv, ok = read(src); ok {
				if dv, ok = read(dst); ok {
					if ok = write(src, sv-1); ok {
						ok = write(dst, dv+1)
					}
				}
			}
			cm, am := isa.LaneMask(0), isa.LaneMask(0)
			if ok {
				cm = cm.Set(0)
			} else {
				am = am.Set(0)
			}
			h.eng.Schedule(0, func() { h.proto.Commit(w, cm, am, func(tm.CommitOutcome) {}) })
			h.eng.Run(0)
			if ok {
				break
			}
		}
	}
	h.eng.Run(0)
	if lockedGranules(h.proto) != 0 {
		t.Fatal("locks leaked")
	}
	// Conservation: total balance unchanged.
	var total uint64
	for _, a := range accounts {
		total += h.img.Read(a)
	}
	if total != 800 {
		t.Fatalf("balance total = %d, want 800", total)
	}
	if err := tm.CheckSerializable(initial, h.img, h.proto.Committed); err != nil {
		t.Fatalf("serializability violated: %v", err)
	}
}

func TestProtocolRollover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSBits = 8 // threshold = 224
	h := newProtoHarness(cfg, 2)
	// Drive warpts up by ping-ponging conflicting writes between two warps
	// (each abort advances the loser's warpts past the observed wts).
	for i := 0; i < 1000; i++ {
		gwid := 1 + i%2
		h.runTx(t, gwid, nil, map[uint64]uint64{0x100: uint64(i)})
		if h.proto.Rollovers > 0 {
			break
		}
	}
	h.eng.Run(0)
	if h.proto.Rollovers == 0 {
		t.Fatal("no rollover despite 8-bit timestamps")
	}
	if ts := h.proto.warpts[1]; ts >= cfg.RolloverThreshold() {
		t.Fatalf("warpts %d not reset by rollover", ts)
	}
	// The system still works after rollover.
	if !h.runTx(t, 5, []uint64{0x100}, map[uint64]uint64{0x100: 7}) {
		t.Fatal("post-rollover tx failed")
	}
	if err := tm.CheckSerializable(mem.NewImage(), nil, h.proto.Committed); err != nil {
		t.Fatalf("epoch-keyed serializability violated: %v", err)
	}
}

func TestProtocolLoadCoalescing(t *testing.T) {
	h := newProtoHarness(DefaultConfig(), 2)
	h.img.Write(0x300, 55)
	w := &tm.WarpTx{GWID: 1, Core: 0, Log: tm.NewTxLog()}
	h.proto.Begin(w)
	lanes := []tm.LaneAccess{
		{Lane: 0, Addr: 0x300},
		{Lane: 1, Addr: 0x300},
		{Lane: 2, Addr: 0x300},
	}
	upBefore := h.trans.up
	var res []tm.AccessResult
	h.eng.Schedule(0, func() {
		h.proto.Access(w, false, lanes, func(r []tm.AccessResult) { res = r })
	})
	h.eng.Run(0)
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Abort || r.Value != 55 {
			t.Fatalf("lane result = %+v", r)
		}
	}
	// One coalesced request: exactly one request's worth of up traffic.
	if h.trans.up-upBefore != uint64(tm.ReqBytes) {
		t.Fatalf("up traffic = %d, want %d (coalesced)", h.trans.up-upBefore, tm.ReqBytes)
	}
	h.eng.Schedule(0, func() {
		h.proto.Commit(w, isa.LaneMask(0b111), 0, func(tm.CommitOutcome) {})
	})
	h.eng.Run(0)
}

// lockedGranules sums live write reservations across all partitions; it
// must be zero after a run.
func lockedGranules(p *Protocol) int {
	n := 0
	for _, vu := range p.vus {
		n += vu.Meta.LockedEntries()
	}
	return n
}
