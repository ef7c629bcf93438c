package eapg

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
	"getm/internal/warptm"
	"getm/internal/xbar"
)

// xbarTransport carries the protocol's messages over a real crossbar pair,
// which allocates nothing per message or per broadcast copy.
type xbarTransport struct{ pair *xbar.Pair }

func (x xbarTransport) ToPartition(core, partition, bytes int, deliver func()) {
	x.pair.Up.Send(core, partition, bytes, deliver)
}

func (x xbarTransport) ToCore(partition, core, bytes int, deliver func()) {
	x.pair.Down.Send(partition, core, bytes, deliver)
}

func (x xbarTransport) BroadcastToCores(partition, bytes int, deliver func(core int)) {
	x.pair.Down.Broadcast(partition, bytes, deliver)
}

// Gate: a steady-state EAPG step — a committing transaction's signature
// broadcast to every core, the early abort it dooms on another core, an
// access paused behind the commit and retried after it, and the inner
// WarpTM commits — runs without touching the allocator. Signature records,
// paused accesses and broadcast copies are pooled with their callbacks
// prebuilt.
func TestEAPGStepAllocs(t *testing.T) {
	const nParts, cores = 2, 2
	eng := sim.NewEngine()
	img := mem.NewImage()
	amap := mem.AddressMap{Partitions: nParts, LineBytes: 128}
	trans := xbarTransport{xbar.NewPair(eng, cores, nParts, xbar.DefaultConfig())}
	cfg := warptm.DefaultConfig()
	rng := sim.NewRNG(31)
	pcfg := mem.DefaultPartitionConfig()
	pcfg.LLCBytes = 16 << 10
	var vus []*warptm.VU
	for i := 0; i < nParts; i++ {
		vus = append(vus, warptm.NewVU(cfg, eng, mem.NewPartition(i, eng, img, pcfg), rng.Fork(uint64(i))))
	}
	p := New(warptm.NewProtocol(cfg, eng, amap, trans, vus, img), eng, trans, cores)
	notices := 0
	p.SetAbortSink(func(tm.AbortNotice) { notices++ })

	const x, y = 0x100, 0x2000
	img.Write(x, 1)
	// a (core 0) reads x and writes y; b (core 1) read y before a commits,
	// so a's broadcast dooms it; c (core 1) loads y while a commits, so it
	// pauses until a resumes.
	a := &tm.WarpTx{GWID: 0, Core: 0, Log: tm.NewTxLog()}
	b := &tm.WarpTx{GWID: 48, Core: 1, Log: tm.NewTxLog()}
	c := &tm.WarpTx{GWID: 49, Core: 1, Log: tm.NewTxLog()}
	lane0 := isa.LaneMask(0).Set(0)
	readX := []tm.LaneAccess{{Lane: 0, Addr: x}}
	readY := []tm.LaneAccess{{Lane: 0, Addr: y}}
	writeY := []tm.LaneAccess{{Lane: 0, Addr: y, Value: 3}}
	var got tm.AccessResult
	onAccess := func(rs []tm.AccessResult) { got = rs[0] }
	resumed := 0
	resume := func(tm.CommitOutcome) { resumed++ }
	begin := func(w *tm.WarpTx) {
		w.Log.Reset()
		w.StartCycle = eng.Now()
		p.Begin(w)
	}
	run := func(fn func()) {
		eng.Schedule(0, fn)
		eng.Run(0)
	}
	aReadsX := func() { p.Access(a, false, readX, onAccess) }
	bReadsY := func() { p.Access(b, false, readY, onAccess) }
	aWritesY := func() { p.Access(a, true, writeY, onAccess) }
	cReadsY := func() { p.Access(c, false, readY, onAccess) }
	aCommits := func() {
		p.Commit(a, lane0, 0, resume)
		eng.Schedule(1, cReadsY)
	}
	bAborts := func() { p.Commit(b, 0, lane0, resume) }
	cCommits := func() { p.Commit(c, lane0, 0, resume) }

	step := func() {
		begin(a)
		begin(b)
		begin(c)
		run(aReadsX)
		a.Log.RecordRead(0, x, got.Value)
		run(bReadsY)
		b.Log.RecordRead(0, y, got.Value)
		run(aWritesY)
		a.Log.RecordWrite(0, y, 3)
		run(aCommits)
		c.Log.RecordRead(0, y, got.Value)
		run(bAborts)
		run(cCommits)
	}
	step() // warm the pools, maps, slices and engine slab
	if resumed != 3 || notices != 1 || p.Pauses != 1 || p.Broadcasts != 1 || got.Value != 3 {
		t.Fatalf("warm-up: %d resumes, %d early aborts, %d pauses, %d broadcasts, c read %d; want 3, 1, 1, 1, 3",
			resumed, notices, p.Pauses, p.Broadcasts, got.Value)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("EAPG broadcast+early abort+pause+commits allocates %.1f per step, want 0", allocs)
	}
	if p.Pauses != 102 || notices != 102 {
		t.Fatalf("%d pauses and %d early aborts over 102 steps, want one each per step", p.Pauses, notices)
	}
}
