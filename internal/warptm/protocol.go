package warptm

import (
	"math/bits"

	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
	"getm/internal/trace"
)

// Protocol is WarpTM's SIMT-core-side driver (and, with cfg.Eager, the
// idealized WarpTM-EL variant).
type Protocol struct {
	cfg   Config
	eng   *sim.Engine
	amap  mem.AddressMap
	trans tm.Transport
	vus   []*VU
	img   *mem.Image

	nextCID uint64
	// decided is the next commit id to retire. Commit decisions retire
	// strictly in commit-id order (KiloTM's commit ids ARE the global
	// serialization order): a transaction whose validations have all
	// returned still waits for every earlier id to decide before its writes
	// apply. This makes id order a valid serialization for the replay
	// checker and gives TCD's read-only commits a sound horizon.
	decided uint64
	// waiting holds finished-validation commits awaiting their in-order
	// decision slot, by commit id from decided on.
	waiting idRing[commitReq]
	// tcdUnsafe marks lanes whose reads touched recently written lines and
	// therefore cannot silently commit. Indexed by gwid (grown on Begin).
	tcdUnsafe []isa.LaneMask
	// startHorizon records p.decided when each warp's attempt began; silent
	// read-only commits serialize there (every decision before the horizon
	// is visible to them, none after — later decisions on their read set
	// would have tripped the TCD check). Indexed by gwid.
	startHorizon []uint64

	// Hot-path freelists (single goroutine per machine — no locking): access
	// states, per-word load requests and commit objects. Pooled objects carry
	// prebuilt closures so steady-state accesses and commits allocate
	// nothing. A pooled object reaches the protocol through its p field,
	// which only an object in use has, so the lists outlive the machine
	// (Recycle).
	accPool    *wtmAccess
	wordPool   *wordReq
	commitPool *commitReq
	// Per-commit counting-sort scratch (len = #partitions), consumed
	// synchronously inside Commit.
	readCount  []int
	writeCount []int

	// Committed records transactions for the replay checker.
	Committed []tm.CommittedTx
	Record    bool
	seq       uint64

	SilentCommits uint64
	EarlyAborts   uint64 // EL: access-time validation failures

	rec *trace.Recorder
}

// SetTrace attaches the machine-wide event recorder (nil disables).
func (p *Protocol) SetTrace(rec *trace.Recorder) { p.rec = rec }

// Stocks of finished machines' WarpTM free lists and decision rings
// (DESIGN §6).
var (
	accStock    = sim.NewStock(func(st *wtmAccess) **wtmAccess { return &st.next })
	wordStock   = sim.NewStock(func(wr *wordReq) **wordReq { return &wr.next })
	commitStock = sim.NewStock(func(c *commitReq) **commitReq { return &c.next })
	stateStock  = sim.NewStock(func(st *txState) **txState { return &st.next })
	retireStock = sim.NewStock(func(r *retireEv) **retireEv { return &r.next })
)

// Recycle hands the protocol's free lists, and every partition's TCD
// arrays, VU free lists and VU bookkeeping, to the next machine built in
// this process. The protocol must not run afterwards.
func (p *Protocol) Recycle() {
	accStock.Put(p.accPool)
	wordStock.Put(p.wordPool)
	commitStock.Put(p.commitPool)
	p.accPool, p.wordPool, p.commitPool = nil, nil, nil
	for _, vu := range p.vus {
		vu.recycle()
	}
}

var _ tm.Protocol = (*Protocol)(nil)

// NewProtocol wires WarpTM over one VU per partition.
func NewProtocol(cfg Config, eng *sim.Engine, amap mem.AddressMap, trans tm.Transport, vus []*VU, img *mem.Image) *Protocol {
	return &Protocol{
		cfg:        cfg,
		eng:        eng,
		amap:       amap,
		trans:      trans,
		vus:        vus,
		img:        img,
		readCount:  make([]int, len(vus)),
		writeCount: make([]int, len(vus)),
	}
}

// Name implements tm.Protocol.
func (p *Protocol) Name() string {
	if p.cfg.Eager {
		return "warptm-el"
	}
	return "warptm"
}

// EagerIntraWarp: WarpTM resolves intra-warp conflicts at commit time.
// The EL variant detects them at access time like GETM would.
func (p *Protocol) EagerIntraWarp() bool { return p.cfg.Eager }

// Begin implements tm.Protocol.
func (p *Protocol) Begin(w *tm.WarpTx) {
	for w.GWID >= len(p.tcdUnsafe) {
		p.tcdUnsafe = append(p.tcdUnsafe, 0)
		p.startHorizon = append(p.startHorizon, 0)
	}
	p.tcdUnsafe[w.GWID] = 0
	p.startHorizon[w.GWID] = p.decided
}

// staleLanes is the EL variant's idealized zero-latency eager check for the
// lanes in lanes: a lane whose logged reads no longer all match current
// memory is doomed and aborts immediately. One pass over the shared read
// log answers for every lane of an access, so the caller tests a bit per
// lane (memory does not change while it does).
func (p *Protocol) staleLanes(w *tm.WarpTx, lanes isa.LaneMask) (stale isa.LaneMask) {
	for _, e := range w.Log.Reads {
		if lanes.Bit(e.Lane) && !stale.Bit(e.Lane) && p.img.Read(e.Addr) != e.Value {
			stale = stale.Set(e.Lane)
		}
	}
	return stale
}

// wtmAccess tracks one in-flight warp access: the caller's lanes/done plus
// the result buffer. Pooled; released when the access completes.
type wtmAccess struct {
	p         *Protocol
	w         *tm.WarpTx
	lanes     []tm.LaneAccess
	results   []tm.AccessResult
	remaining int // unique words still outstanding (load path)
	done      func([]tm.AccessResult)
	finishFn  func() // prebuilt: done(results) + release (write path)
	next      *wtmAccess
}

// wordReq is one coalesced load word's round trip: up crossbar, partition
// data read + TCD lookup, down crossbar, then per-lane resolution. All three
// callbacks are built once per pooled object.
type wordReq struct {
	p         *Protocol
	st        *wtmAccess
	addr      uint64
	sharers   uint32 // bit i: st.lanes[i] reads this word
	part      int
	val       uint64
	lastWrite sim.Cycle
	submitFn  func() // up-crossbar delivery: start the partition read
	readFn    func() // partition data read completion
	replyFn   func() // down-crossbar delivery: resolve sharing lanes
	next      *wordReq
}

func (p *Protocol) getAccess() *wtmAccess {
	st := p.accPool
	if st == nil {
		st = accStock.Get()
	}
	if st == nil {
		st = &wtmAccess{results: make([]tm.AccessResult, 0, isa.WarpWidth)}
		st.finishFn = func() {
			st.done(st.results)
			st.release()
		}
	} else {
		p.accPool = st.next
	}
	st.p = p
	return st
}

func (st *wtmAccess) release() {
	p := st.p
	st.p, st.w, st.lanes, st.done = nil, nil, nil, nil
	st.next = p.accPool
	p.accPool = st
}

func (p *Protocol) getWordReq() *wordReq {
	wr := p.wordPool
	if wr == nil {
		wr = wordStock.Get()
	}
	if wr == nil {
		wr = &wordReq{}
		wr.submitFn = func() {
			// Data read through the partition pipeline + TCD lookup.
			part := wr.p.vus[wr.part].part
			part.Eng.Schedule(part.AccessDelay(wr.addr), wr.readFn)
		}
		wr.readFn = func() {
			vu := wr.p.vus[wr.part]
			wr.val = vu.part.ReadNow(wr.addr)
			wr.lastWrite = vu.tcd.LastWrite(wr.addr / uint64(mem.WordBytes))
			wr.p.trans.ToCore(wr.part, wr.st.w.Core, tm.ReplyBytes+tm.TSBytes, wr.replyFn)
		}
		wr.replyFn = func() { wr.deliver() }
	} else {
		p.wordPool = wr.next
	}
	wr.p = p
	return wr
}

// deliver resolves every lane sharing this word, in index order, recycles
// the request, and completes the access when the last word lands.
func (wr *wordReq) deliver() {
	st, p := wr.st, wr.p
	unsafe := wr.lastWrite >= st.w.StartCycle
	var stale isa.LaneMask
	if p.cfg.Eager {
		// Idealized eager check of the sharers' logged reads (the value
		// just read is current memory, and its log entry is recorded by the
		// caller after this returns).
		var lanes isa.LaneMask
		for m := wr.sharers; m != 0; m &= m - 1 {
			lanes = lanes.Set(st.lanes[bits.TrailingZeros32(m)].Lane)
		}
		stale = p.staleLanes(st.w, lanes)
	}
	for m := wr.sharers; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		lane := st.lanes[i].Lane
		st.results[i].Value = wr.val
		if unsafe {
			p.tcdUnsafe[st.w.GWID] = p.tcdUnsafe[st.w.GWID].Set(lane)
		}
		if stale.Bit(lane) {
			p.EarlyAborts++
			st.results[i].Abort = true
			st.results[i].Cause = tm.CauseValidation
		}
	}
	wr.st, wr.p = nil, nil
	wr.next = p.wordPool
	p.wordPool = wr
	st.remaining--
	if st.remaining == 0 {
		st.done(st.results)
		st.release()
	}
}

// Access implements tm.Protocol. Loads fetch data from the LLC and query the
// TCD; stores are buffered locally in the redo log and complete immediately
// (lazy versioning).
func (p *Protocol) Access(w *tm.WarpTx, isWrite bool, lanes []tm.LaneAccess, done func([]tm.AccessResult)) {
	if len(lanes) == 0 {
		done(nil)
		return
	}
	st := p.getAccess()
	st.w, st.lanes, st.done = w, lanes, done
	if cap(st.results) < len(lanes) {
		st.results = make([]tm.AccessResult, len(lanes))
	} else {
		st.results = st.results[:len(lanes)]
	}

	if isWrite {
		// Local log write: one cycle, no interconnect traffic.
		var stale isa.LaneMask
		if p.cfg.Eager {
			var all isa.LaneMask
			for _, la := range lanes {
				all = all.Set(la.Lane)
			}
			stale = p.staleLanes(w, all)
		}
		for i, la := range lanes {
			st.results[i] = tm.AccessResult{Lane: la.Lane}
			if stale.Bit(la.Lane) {
				p.EarlyAborts++
				st.results[i].Abort = true
				st.results[i].Cause = tm.CauseValidation
			}
		}
		p.eng.Schedule(1, st.finishFn)
		return
	}

	// Coalesce loads: lanes reading the same word share one request, issued
	// at the word's first touch (deterministic order; linear scan over at
	// most WarpWidth words), whose sharer mask names every lane it resolves.
	// All requests and masks are complete before the first send, and
	// crossbar delivery is never synchronous (tm.Transport), so no reply
	// sees a partial mask or remaining count.
	var words [isa.WarpWidth]*wordReq
	n := 0
	for i, la := range lanes {
		st.results[i] = tm.AccessResult{Lane: la.Lane}
		shared := false
		for _, wr := range words[:n] {
			if wr.addr == la.Addr {
				wr.sharers |= 1 << uint(i)
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		wr := p.getWordReq()
		wr.st = st
		wr.addr = la.Addr
		wr.sharers = 1 << uint(i)
		wr.part = p.amap.Partition(la.Addr)
		words[n] = wr
		n++
	}
	st.remaining = n
	for _, wr := range words[:n] {
		p.trans.ToPartition(w.Core, wr.part, tm.ReqBytes, wr.submitFn)
	}
}

// commitReq is one warp commit's state. A validating commit carries its id,
// lane masks, reply and ack counters, involved partitions and entry backing
// through both round trips; a silent read-only commit uses it only for its
// one-cycle resume. Pooled per machine; every callback, including one
// partCommit per partition, is built once with the object and reaches the
// protocol through c.p. A stocked object from a machine with fewer
// partitions gets its partCommits rebuilt (growParts). The object is
// recycled before resume runs, and keeps its entry backing for the next
// commit.
type commitReq struct {
	p           *Protocol
	w           *tm.WarpTx
	cid         uint64
	validating  isa.LaneMask
	failed      isa.LaneMask
	committing  isa.LaneMask
	repliesLeft int
	acksLeft    int
	involved    []int
	backing     []tm.LogEntry
	partOf      []int32 // each validating entry's partition, reads then writes
	resume      func(tm.CommitOutcome)
	parts       []partCommit
	resumeFn    func() // silent commit: the one-cycle resume
	next        *commitReq
}

// partCommit is one commit's exchange with one partition: its validation
// message and the callbacks of both round trips.
type partCommit struct {
	msg    ValidationMsg
	failed isa.LaneMask // this partition's validation reply

	submitFn     func() // up-crossbar delivery: hand msg to the VU
	replyFn      func() // down-crossbar delivery of the validation reply
	confirmFn    func() // up-crossbar delivery of the decision
	ackFn        func() // commit unit done: send the ack home
	ackDeliverFn func() // down-crossbar delivery of the ack
}

func (p *Protocol) getCommit() *commitReq {
	c := p.commitPool
	if c == nil {
		c = commitStock.Get()
	}
	if c == nil {
		c = &commitReq{}
		c.resumeFn = func() {
			resume := c.resume
			c.release()
			resume(tm.CommitOutcome{})
		}
	} else {
		p.commitPool = c.next
	}
	if len(c.parts) < len(p.vus) {
		c.growParts(len(p.vus))
	}
	c.p = p
	return c
}

// growParts builds n partCommits with their callbacks.
func (c *commitReq) growParts(n int) {
	c.parts = make([]partCommit, n)
	for part := range c.parts {
		pc := &c.parts[part]
		pc.submitFn = func() { c.p.vus[part].Submit(&pc.msg) }
		pc.msg.Reply = func(f isa.LaneMask) {
			pc.failed = f
			c.p.trans.ToCore(part, c.w.Core, tm.HeaderBytes+4, pc.replyFn)
		}
		pc.replyFn = func() {
			c.failed |= pc.failed
			c.repliesLeft--
			if c.repliesLeft == 0 {
				c.p.finishCommit(c)
			}
		}
		pc.confirmFn = func() { c.p.vus[part].Confirm(c.cid, c.committing, pc.ackFn) }
		pc.ackFn = func() { c.p.trans.ToCore(part, c.w.Core, tm.HeaderBytes, pc.ackDeliverFn) }
		pc.ackDeliverFn = func() {
			c.acksLeft--
			if c.acksLeft > 0 {
				return
			}
			resume, out := c.resume, tm.CommitOutcome{FailedLanes: c.failed, Cause: tm.CauseValidation}
			c.release()
			resume(out)
		}
	}
}

func (c *commitReq) release() {
	p := c.p
	c.p, c.w, c.resume = nil, nil, nil
	c.next = p.commitPool
	p.commitPool = c
}

// Commit implements tm.Protocol: the two-round-trip value-based validation
// and commit sequence of Fig 2 (top), with TCD silent commits for read-only
// lanes.
func (p *Protocol) Commit(w *tm.WarpTx, commitMask, abortMask isa.LaneMask, resume func(tm.CommitOutcome)) {
	unsafe := p.tcdUnsafe[w.GWID]

	// Partition lanes into silent (read-only, TCD-safe) and validating.
	var silent, validating isa.LaneMask
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !commitMask.Bit(lane) {
			continue
		}
		if w.Log.LaneWriteCount(lane) == 0 && !unsafe.Bit(lane) {
			silent = silent.Set(lane)
		} else {
			validating = validating.Set(lane)
		}
	}

	if p.Record {
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if !silent.Bit(lane) {
				continue
			}
			reads, _ := w.Log.LaneEntries(lane)
			p.seq++
			// Read-only TCD commits serialize at transaction start: strictly
			// after every commit id decided before the attempt began (those
			// have keys 2*(cid+1) <= 2*horizon) and strictly before every
			// later decision (keys >= 2*horizon+2).
			p.Committed = append(p.Committed, tm.CommittedTx{
				GWID: w.GWID, Lane: lane,
				SerialTS: 2*p.startHorizon[w.GWID] + 1, Seq: p.seq, Reads: reads,
			})
		}
	}
	p.SilentCommits += uint64(silent.Count())
	if p.rec != nil && silent != 0 {
		p.rec.Emit(trace.SrcWarpTM, trace.KWTMSilent, int32(w.Core),
			uint64(w.GWID), uint64(silent), 0, 0)
	}

	c := p.getCommit()
	c.resume = resume
	if validating == 0 {
		// Nothing needs the commit units; the warp continues immediately.
		p.eng.Schedule(1, c.resumeFn)
		return
	}

	c.w, c.cid, c.validating, c.failed = w, p.nextCID, validating, 0
	c.involved = c.involved[:0]
	p.nextCID++

	// Build per-partition entry lists for the validating lanes: a stable
	// counting sort into one pooled flat backing (entry order within each
	// partition matches log order, as the old per-partition appends did).
	// The backing is shared by every partition's ValidationMsg and reused by
	// the object's next commit, after this one resumes — by then each VU has
	// either retired the empty message or applied and dropped its txState.
	// The counting pass maps each entry to its partition once (partOf), and
	// the placing pass reads the map.
	nParts := len(p.vus)
	for part := 0; part < nParts; part++ {
		p.readCount[part] = 0
		p.writeCount[part] = 0
	}
	partOf := c.partOf[:0]
	for _, e := range w.Log.Reads {
		if validating.Bit(e.Lane) {
			part := p.amap.Partition(e.Addr)
			p.readCount[part]++
			partOf = append(partOf, int32(part))
		}
	}
	for _, e := range w.Log.Writes {
		if validating.Bit(e.Lane) {
			part := p.amap.Partition(e.Addr)
			p.writeCount[part]++
			partOf = append(partOf, int32(part))
		}
	}
	c.partOf = partOf
	need := len(partOf)
	if cap(c.backing) < need {
		c.backing = make([]tm.LogEntry, need)
	} else {
		c.backing = c.backing[:need]
	}
	// Carve zero-length exact-capacity sub-slices out of the backing, then
	// append into them: no reallocation, stable order.
	pos := 0
	for part := 0; part < nParts; part++ {
		m := &c.parts[part].msg
		m.Reads = c.backing[pos : pos : pos+p.readCount[part]]
		pos += p.readCount[part]
		m.Writes = c.backing[pos : pos : pos+p.writeCount[part]]
		pos += p.writeCount[part]
	}
	k := 0
	for _, e := range w.Log.Reads {
		if validating.Bit(e.Lane) {
			m := &c.parts[partOf[k]].msg
			m.Reads = append(m.Reads, e)
			k++
		}
	}
	for _, e := range w.Log.Writes {
		if validating.Bit(e.Lane) {
			m := &c.parts[partOf[k]].msg
			m.Writes = append(m.Writes, e)
			k++
		}
	}
	if p.rec != nil {
		p.rec.Emit(trace.SrcWarpTM, trace.KWTMValidate, int32(w.Core),
			c.cid, uint64(validating), uint64(need), 0)
	}

	// Round trip 1: validation at every partition. Partitions holding none
	// of the footprint receive a header-only message that just keeps the
	// commit-id sequence in lockstep and retires immediately.
	c.repliesLeft = nParts
	for part := 0; part < nParts; part++ {
		pc := &c.parts[part]
		pc.msg.CID, pc.msg.Core = c.cid, w.Core
		if len(pc.msg.Reads)+len(pc.msg.Writes) > 0 {
			c.involved = append(c.involved, part)
		}
		bytes := tm.HeaderBytes + len(pc.msg.Reads)*tm.ValidateEntryBytes + len(pc.msg.Writes)*tm.CommitEntryBytes
		p.trans.ToPartition(w.Core, part, bytes, pc.submitFn)
	}
}

// finishCommit runs the second round trip: confirmation to the commit units
// and acknowledgement collection; only then does the warp resume.
//
// The commit's memory effect is applied here, atomically at the decision
// instant (decisions fire in cid order because each VU serializes
// validations): this is the transaction's serialization point. The confirm
// messages and commit units then model the write bandwidth, hazard release
// and acks. Making the data visible one confirmation-latency early is the
// standard simulator simplification; the hazard window keeps overlapping
// validations ordered either way.
func (p *Protocol) finishCommit(c *commitReq) {
	if p.cfg.LocalArb {
		// Local arbitration: decide immediately instead of waiting for the
		// in-order retirement slot. Conflicting commits are still ordered —
		// a validation whose footprint overlaps an unconfirmed write set
		// stalls in the VU hazard window until that commit's confirmation —
		// so commit-id order remains a valid serialization; p.decided becomes
		// a count of decisions (an approximate horizon for silent commits).
		p.decided++
		p.decide(c)
		return
	}
	p.waiting.put(p.decided, c.cid, c)
	for {
		next := p.waiting.get(p.decided)
		if next == nil {
			return
		}
		p.waiting.del(p.decided)
		p.decided++
		p.decide(next)
	}
}

// decide retires one commit in id order: the atomic apply, checker record,
// and the confirmation round trip to the involved commit units.
func (p *Protocol) decide(c *commitReq) {
	w := c.w
	c.committing = c.validating &^ c.failed
	if p.rec != nil {
		p.rec.Emit(trace.SrcWarpTM, trace.KWTMDecide, int32(w.Core),
			c.cid, uint64(c.failed), uint64(c.committing), 0)
	}

	// Atomic apply: data and TCD last-write times for all partitions. Each
	// partition's message holds its share of the writes in log order, and
	// no word is in two partitions, so walking the messages writes what a
	// walk of the log would, in the same order at each partition.
	now := p.eng.Now()
	for _, part := range c.involved {
		vu := p.vus[part]
		for _, e := range c.parts[part].msg.Writes {
			if c.committing.Bit(e.Lane) {
				vu.part.WriteNow(e.Addr, e.Value)
				vu.tcd.RecordWrite(e.Addr/uint64(mem.WordBytes), now)
			}
		}
	}

	if p.Record {
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if !c.committing.Bit(lane) {
				continue
			}
			reads, writes := w.Log.LaneEntries(lane)
			p.seq++
			p.Committed = append(p.Committed, tm.CommittedTx{
				GWID: w.GWID, Lane: lane,
				SerialTS: 2 * (c.cid + 1), Seq: p.seq, Reads: reads, Writes: writes,
			})
		}
	}

	// Round trip 2: confirmation and acks, only for the involved partitions.
	c.acksLeft = len(c.involved)
	for _, part := range c.involved {
		p.trans.ToPartition(w.Core, part, tm.HeaderBytes+4, c.parts[part].confirmFn)
	}
}
