package gpu

import (
	"fmt"

	"getm/internal/core"
	"getm/internal/eapg"
	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/policy"
	"getm/internal/sim"
	"getm/internal/simt"
	"getm/internal/stats"
	"getm/internal/tm"
	"getm/internal/trace"
	"getm/internal/warptm"
	"getm/internal/xbar"
)

// machine holds the assembled hardware components of one run.
type machine struct {
	cfg        Config
	img        *mem.Image
	amap       mem.AddressMap
	pair       *xbar.Pair
	partitions []*mem.Partition
	protocol   tm.Protocol

	getm   *core.Protocol
	getmVU []*core.VU
	getmCU []*core.CU
	stall  *core.OccTracker
	wtm    *warptm.Protocol
	eapg   *eapg.Protocol
	memsys *memSystem
}

// newMachine assembles the hardware for one run around pol, the matrix point
// cfg.Protocol resolved to (zero for fglock). rec (nil = tracing off) is
// attached to every component that can emit trace events.
func newMachine(eng *sim.Engine, img *mem.Image, cfg Config, pol policy.Policy, rec *trace.Recorder) (*machine, error) {
	m := &machine{
		cfg:  cfg,
		img:  img,
		amap: mem.AddressMap{Partitions: cfg.Partitions, LineBytes: cfg.Partition.LineBytes},
		pair: xbar.NewPair(eng, cfg.Cores, cfg.Partitions, cfg.Xbar),
	}
	for i := 0; i < cfg.Partitions; i++ {
		m.partitions = append(m.partitions, mem.NewPartition(i, eng, img, cfg.Partition))
	}
	m.memsys = &memSystem{amap: m.amap, img: img, partitions: m.partitions, pair: m.pair, eng: eng}
	trans := &transport{m: m}
	rng := sim.NewRNG(cfg.Seed ^ 0xC0FFEE)

	// One lifecycle engine serves every TM protocol: the matrix point
	// parameterizes policy.Build. fglock is not a TM protocol and keeps its
	// stub.
	if pol.IsZero() {
		m.protocol = lockStub{}
	} else {
		e, err := policy.Build(pol, policy.Deps{
			Eng:        eng,
			AMap:       m.amap,
			Trans:      trans,
			Partitions: m.partitions,
			Img:        img,
			Cores:      cfg.Cores,
			RNG:        rng,
			Record:     cfg.Record,
			GETM:       cfg.GETM,
			WarpTM:     cfg.WarpTM,
		})
		if err != nil {
			return nil, err
		}
		m.protocol = e.Protocol
		m.getm, m.getmVU, m.getmCU, m.stall = e.GETM, e.GETMVU, e.GETMCU, e.Stall
		m.wtm, m.eapg = e.WarpTM, e.EAPG
	}
	if rec != nil {
		m.pair.SetTrace(rec)
		for _, p := range m.partitions {
			p.SetTrace(rec)
		}
		for _, vu := range m.getmVU {
			vu.SetTrace(rec)
		}
		for _, cu := range m.getmCU {
			cu.SetTrace(rec)
		}
		if m.eapg != nil {
			m.eapg.SetTrace(rec) // also wires the inner WarpTM
		} else if m.wtm != nil {
			m.wtm.SetTrace(rec)
		}
	}
	return m, nil
}

// registerProbes wires the machine-level time-series probes the interval
// sampler walks: IPC, in-flight transactions, commit/abort throughput,
// interconnect traffic, and (GETM) stall-buffer occupancy.
func (m *machine) registerProbes(rec *trace.Recorder, cores []*simt.Core) {
	rec.AddRate("ipc", func() uint64 {
		var n uint64
		for _, c := range cores {
			n += c.Stats.Instructions
		}
		return n
	})
	rec.AddGauge("tx-inflight", func() float64 {
		n := 0
		for _, c := range cores {
			n += c.ActiveTx()
		}
		return float64(n)
	})
	rec.AddDelta("commits", func() uint64 {
		var n uint64
		for _, c := range cores {
			n += c.Stats.Commits
		}
		return n
	})
	rec.AddDelta("aborts", func() uint64 {
		var n uint64
		for _, c := range cores {
			n += c.Stats.Aborts
		}
		return n
	})
	rec.AddRate("xbar-bytes", func() uint64 {
		u, d := m.pair.TrafficBytes()
		return u + d
	})
	if m.getm != nil {
		rec.AddGauge("stallbuf-occupancy", func() float64 {
			return float64(m.getm.StallOccupancy())
		})
	}
}

// recycle hands everything the run grew to the next machine built in this
// process, on any goroutine (DESIGN §6): the large arrays (LLC tags and LRU,
// GETM metadata ways and approximate filters, WarpTM TCD filters, transaction
// logs and, unless cfg.Record keeps it for Result.FinalImage, the memory
// image's pages), the warps, and every component's free lists. RunContext
// calls it once the Result is built, which holds none of them; the machine
// must not run afterwards.
func (m *machine) recycle(cores []*simt.Core) {
	for _, p := range m.partitions {
		p.LLC.Recycle()
	}
	if m.getm != nil {
		m.getm.Recycle()
	}
	if m.eapg != nil {
		m.eapg.Recycle()
	}
	if m.wtm != nil {
		m.wtm.Recycle()
	}
	m.pair.Recycle()
	m.memsys.recycle()
	for _, c := range cores {
		c.Recycle()
	}
	if !m.cfg.Record {
		m.img.Recycle()
	}
}

// committed returns the recorded transactions for the replay checker.
func (m *machine) committed() []tm.CommittedTx {
	switch {
	case m.getm != nil:
		return m.getm.Committed
	case m.wtm != nil:
		return m.wtm.Committed
	}
	return nil
}

// checkInvariants verifies post-run GETM state: no write reservation leaked
// and no request is left in a stall buffer.
func (m *machine) checkInvariants() error {
	locked, stalled := 0, 0
	for _, vu := range m.getmVU {
		locked += vu.Meta.LockedEntries()
		stalled += vu.Stall.Occupancy()
	}
	if locked != 0 {
		return fmt.Errorf("%d write reservations leaked", locked)
	}
	if stalled != 0 {
		return fmt.Errorf("%d requests stuck in stall buffers", stalled)
	}
	return nil
}

// collect aggregates run metrics.
func (m *machine) collect(cores []*simt.Core, end sim.Cycle) *stats.Metrics {
	out := stats.NewMetrics()
	out.TotalCycles = uint64(end)
	for _, c := range cores {
		out.TxExecCycles += c.Stats.TxExecCycles
		out.TxWaitCycles += c.Stats.TxWaitCycles
		out.Commits += c.Stats.Commits
		out.Aborts += c.Stats.Aborts
		for cause, n := range c.Stats.AbortsByCause {
			if n > 0 { // a cause that never occurred stays out of the metrics
				out.AbortsByCause.Inc(tm.AbortCause(cause).String(), n)
			}
		}
		out.Extra.Inc("instructions", c.Stats.Instructions)
		out.Extra.Inc("tx-attempts", c.Stats.TxAttempts)
		out.Extra.Inc("tx-lane-attempts", c.Stats.TxLaneAttempts)
	}
	out.XbarUpBytes, out.XbarDownBytes = m.pair.TrafficBytes()
	for _, p := range m.partitions {
		out.Extra.Inc("llc-hits", p.LLC.Hits)
		out.Extra.Inc("llc-misses", p.LLC.Misses)
		out.Extra.Inc("atomics", p.AtomicsServed)
	}
	for _, vu := range m.getmVU {
		out.MetaAccessCycles.Merge(vu.AccessCycles)
		out.Extra.Inc("vu-requests", vu.Requests)
		out.Extra.Inc("vu-queued", vu.Queued)
		out.Extra.Inc("meta-overflows", vu.Overflows)
		out.Extra.Inc("meta-evictions", vu.Meta.Evictions)
		out.Extra.Inc("meta-stashed", vu.Meta.StashedEntries)
		out.Extra.Inc("stall-enqueues", vu.Stall.EnqueueCount)
		out.Extra.Inc("stall-rejects", vu.Stall.RejectedFull)
		out.Extra.Inc("stall-depth-total", vu.Stall.PerAddrTotal)
		out.Extra.Inc("stall-depth-count", vu.Stall.PerAddrCount)
	}
	if c := out.Extra["stall-depth-count"]; c > 0 {
		out.StallBufPerAddr.Count = c
		out.StallBufPerAddr.Sum = float64(out.Extra["stall-depth-total"])
	}
	if m.getm != nil {
		out.StallBufMaxOccupancy = uint64(m.stall.Max)
		out.Extra.Inc("rollovers", m.getm.Rollovers)
	}
	if m.wtm != nil {
		out.SilentCommits = m.wtm.SilentCommits
		out.Extra.Inc("el-early-aborts", m.wtm.EarlyAborts)
	}
	if m.eapg != nil {
		out.Extra.Inc("eapg-early-aborts", m.eapg.EarlyAborts)
		out.Extra.Inc("eapg-pauses", m.eapg.Pauses)
		out.Extra.Inc("eapg-broadcasts", m.eapg.Broadcasts)
	}
	return out
}

// transport adapts the crossbar pair to tm.Transport.
type transport struct{ m *machine }

func (t *transport) ToPartition(core, partition, bytes int, deliver func()) {
	t.m.pair.Up.Send(core, partition, bytes, deliver)
}

func (t *transport) ToCore(partition, core, bytes int, deliver func()) {
	t.m.pair.Down.Send(partition, core, bytes, deliver)
}

func (t *transport) BroadcastToCores(partition, bytes int, deliver func(core int)) {
	t.m.pair.Down.Broadcast(partition, bytes, deliver)
}

// memSystem adapts the crossbars + partitions to simt.MemSystem with
// per-line coalescing. Access states, per-line requests and lock CASes are
// pooled with prebuilt callbacks; the machine runs on one goroutine, so no
// locking. A pooled request reaches the memory system through its ms field,
// which only a request in flight has.
type memSystem struct {
	amap       mem.AddressMap
	img        *mem.Image
	partitions []*mem.Partition
	pair       *xbar.Pair
	eng        *sim.Engine
	accPool    *memAccess
	linePool   *lineReq
	casPool    *casReq
}

// Stocks of finished machines' memory-system free lists (DESIGN §6).
var (
	accStock  = sim.NewStock(func(acc *memAccess) **memAccess { return &acc.next })
	lineStock = sim.NewStock(func(lr *lineReq) **lineReq { return &lr.next })
	casStock  = sim.NewStock(func(r *casReq) **casReq { return &r.next })
)

// recycle stocks the free lists for the next machine.
func (ms *memSystem) recycle() {
	accStock.Put(ms.accPool)
	lineStock.Put(ms.linePool)
	casStock.Put(ms.casPool)
	ms.accPool, ms.linePool, ms.casPool = nil, nil, nil
}

// memAccess is one coalesced warp access in flight. Line grouping uses flat
// reusable arrays instead of a map. Accesses usually carry at most WarpWidth
// addresses, but lock-release batches can be larger, so the arrays grow.
type memAccess struct {
	coreID      int
	isWrite     bool
	addrs, vals []uint64 // caller's slices, valid until done
	loadVals    []uint64
	remaining   int
	done        func([]uint64)
	groupOf     []int32 // addr index -> line-group index
	lines       []uint64
	counts      []int32
	next        *memAccess
}

// lineReq is one coalesced line's round trip: up crossbar, partition access
// delay, data movement, down crossbar.
type lineReq struct {
	ms        *memSystem
	acc       *memAccess
	line      uint64
	part      int
	gi        int
	downBytes int
	upFn      func() // up-crossbar delivery: start the partition access
	accessFn  func() // after the access delay: move data, reply
	downFn    func() // down-crossbar delivery: finish
	next      *lineReq
}

func (ms *memSystem) getAccess() *memAccess {
	acc := ms.accPool
	if acc == nil {
		acc = accStock.Get()
	}
	if acc == nil {
		acc = &memAccess{loadVals: make([]uint64, 0, isa.WarpWidth)}
	} else {
		ms.accPool = acc.next
	}
	return acc
}

func (ms *memSystem) getLineReq() *lineReq {
	lr := ms.linePool
	if lr == nil {
		lr = lineStock.Get()
	}
	if lr == nil {
		lr = &lineReq{}
		lr.upFn = func() {
			ms := lr.ms
			ms.eng.Schedule(ms.partitions[lr.part].AccessDelay(lr.line), lr.accessFn)
		}
		lr.accessFn = func() {
			acc, ms := lr.acc, lr.ms
			for i := range acc.addrs {
				if acc.groupOf[i] != int32(lr.gi) {
					continue
				}
				if acc.isWrite {
					ms.img.Write(acc.addrs[i], acc.vals[i])
				} else {
					acc.loadVals[i] = ms.img.Read(acc.addrs[i])
				}
			}
			ms.pair.Down.Send(lr.part, acc.coreID, lr.downBytes, lr.downFn)
		}
		lr.downFn = func() {
			acc, ms := lr.acc, lr.ms
			lr.acc, lr.ms = nil, nil
			lr.next = ms.linePool
			ms.linePool = lr
			acc.remaining--
			if acc.remaining == 0 {
				acc.done(acc.loadVals)
				acc.addrs, acc.vals, acc.done = nil, nil, nil
				acc.next = ms.accPool
				ms.accPool = acc
			}
		}
	} else {
		ms.linePool = lr.next
	}
	lr.ms = ms
	return lr
}

func (ms *memSystem) Access(coreID int, isWrite bool, addrs, vals []uint64, done func([]uint64)) {
	acc := ms.getAccess()
	acc.coreID, acc.isWrite = coreID, isWrite
	acc.addrs, acc.vals, acc.done = addrs, vals, done
	if cap(acc.loadVals) < len(addrs) {
		acc.loadVals = make([]uint64, len(addrs))
	} else {
		acc.loadVals = acc.loadVals[:len(addrs)]
		for i := range acc.loadVals {
			acc.loadVals[i] = 0
		}
	}

	// Group by line, first touch first (deterministic issue order); linear
	// scan over the distinct lines seen so far.
	acc.groupOf = acc.groupOf[:0]
	acc.lines = acc.lines[:0]
	acc.counts = acc.counts[:0]
	for _, a := range addrs {
		line := ms.amap.Line(a)
		gi := -1
		for g := range acc.lines {
			if acc.lines[g] == line {
				gi = g
				break
			}
		}
		if gi < 0 {
			gi = len(acc.lines)
			acc.lines = append(acc.lines, line)
			acc.counts = append(acc.counts, 0)
		}
		acc.groupOf = append(acc.groupOf, int32(gi))
		acc.counts[gi]++
	}
	nGroups := len(acc.lines)
	acc.remaining = nGroups

	for gi := 0; gi < nGroups; gi++ {
		lr := ms.getLineReq()
		lr.acc = acc
		lr.line = acc.lines[gi]
		lr.part = ms.amap.Partition(acc.lines[gi])
		lr.gi = gi
		upBytes := tm.HeaderBytes + tm.AddrBytes
		lr.downBytes = tm.HeaderBytes
		if isWrite {
			upBytes += int(acc.counts[gi]) * tm.WordBytes
		} else {
			lr.downBytes += int(acc.counts[gi]) * tm.WordBytes
		}
		ms.pair.Up.Send(coreID, lr.part, upBytes, lr.upFn)
	}
}

// casReq is one lock CAS's round trip: up crossbar, the partition's atomic
// unit slot, the swap, down crossbar. Pooled like lineReq.
type casReq struct {
	ms                  *memSystem
	core, part          int
	addr, compare, swap uint64
	old                 uint64
	ok                  bool
	done                func(old uint64, ok bool)
	upFn                func() // up-crossbar delivery: wait for the atomic slot
	applyFn             func() // the slot: swap, reply
	downFn              func() // down-crossbar delivery: finish
	next                *casReq
}

func (ms *memSystem) getCAS() *casReq {
	r := ms.casPool
	if r == nil {
		r = casStock.Get()
	}
	if r == nil {
		r = &casReq{}
		r.upFn = func() {
			ms := r.ms
			ms.eng.Schedule(ms.partitions[r.part].AtomicSlot(r.addr), r.applyFn)
		}
		r.applyFn = func() {
			ms := r.ms
			r.old, r.ok = ms.partitions[r.part].CompareAndSwap(r.addr, r.compare, r.swap)
			ms.pair.Down.Send(r.part, r.core, tm.HeaderBytes+tm.WordBytes, r.downFn)
		}
		r.downFn = func() {
			// Recycle before done: the callback may issue the next CAS.
			ms, done, old, ok := r.ms, r.done, r.old, r.ok
			r.ms, r.done = nil, nil
			r.next = ms.casPool
			ms.casPool = r
			done(old, ok)
		}
	} else {
		ms.casPool = r.next
	}
	r.ms = ms
	return r
}

func (ms *memSystem) AtomicCAS(coreID int, addr, compare, swap uint64, done func(old uint64, ok bool)) {
	r := ms.getCAS()
	r.core, r.part = coreID, ms.amap.Partition(addr)
	r.addr, r.compare, r.swap, r.done = addr, compare, swap, done
	ms.pair.Up.Send(coreID, r.part, tm.HeaderBytes+tm.AddrBytes+2*tm.WordBytes, r.upFn)
}

func (ms *memSystem) AtomicAdd(coreID int, addr, delta uint64, done func(old uint64)) {
	partID := ms.amap.Partition(addr)
	part := ms.partitions[partID]
	ms.pair.Up.Send(coreID, partID, tm.HeaderBytes+tm.AddrBytes+tm.WordBytes, func() {
		part.AtomicAdd(addr, delta, func(old uint64) {
			ms.pair.Down.Send(partID, coreID, tm.HeaderBytes+tm.WordBytes, func() {
				done(old)
			})
		})
	})
}

// lockStub is the protocol placeholder for pure-lock runs; lock kernels
// contain no transactional ops.
type lockStub struct{}

func (lockStub) Name() string         { return "fglock" }
func (lockStub) EagerIntraWarp() bool { return false }
func (lockStub) Begin(*tm.WarpTx)     { panic("fglock: transactional op in lock kernel") }
func (lockStub) Access(*tm.WarpTx, bool, []tm.LaneAccess, func([]tm.AccessResult)) {
	panic("fglock: transactional op in lock kernel")
}
func (lockStub) Commit(*tm.WarpTx, isa.LaneMask, isa.LaneMask, func(tm.CommitOutcome)) {
	panic("fglock: transactional op in lock kernel")
}
