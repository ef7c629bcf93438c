package core

import (
	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
)

// Protocol is GETM's SIMT-core-side driver. It owns the per-warp logical
// timestamps (warpts), turns warp memory instructions into validation-unit
// requests, transmits commit/cleanup logs off the critical path, and records
// committed transactions for the serializability checker.
type Protocol struct {
	cfg   Config
	eng   *sim.Engine
	amap  mem.AddressMap
	trans tm.Transport
	vus   []*VU
	cus   []*CU

	// Per-warp logical clocks, indexed by gwid (grown on Begin; a missing
	// entry reads as 0, matching the old map semantics).
	warpts      []uint64
	pendAbortTS []uint64
	activeTx    int
	pendingLogs int
	draining    bool
	epoch       uint64
	seq         uint64

	// Freelists for the per-access and per-commit hot-path objects. The
	// pooled objects carry prebuilt closures, so a steady-state access
	// allocates nothing. Single goroutine per machine — no locking.
	statePool *accessState
	reqPool   *accessReq
	logPool   *commitLog
	batchPool *commitBatch
	// partLog groups one commit's entries by partition; consumed
	// synchronously within Commit.
	partLog []*commitLog

	// Committed accumulates thread-level transaction records for the
	// serializability replay checker (nil disables recording).
	Committed []tm.CommittedTx
	Record    bool

	// Rollovers counts completed rollover rounds.
	Rollovers uint64
	rollover  *rolloverState

	// canBeginHooks are notified whenever a closed CanBegin gate reopens, so
	// cores can re-admit warps queued behind it (see OnCanBegin).
	canBeginHooks []func()
}

var _ tm.Protocol = (*Protocol)(nil)

// NewProtocol wires a GETM protocol instance over the given validation and
// commit units (one per partition).
func NewProtocol(cfg Config, eng *sim.Engine, amap mem.AddressMap, trans tm.Transport, vus []*VU, cus []*CU) *Protocol {
	p := &Protocol{
		cfg:     cfg,
		eng:     eng,
		amap:    amap,
		trans:   trans,
		vus:     vus,
		cus:     cus,
		partLog: make([]*commitLog, len(cus)),
	}
	for _, vu := range vus {
		vu.SetHighWaterHook(p.triggerRollover)
	}
	return p
}

// Name implements tm.Protocol.
func (p *Protocol) Name() string { return "getm" }

// EagerIntraWarp reports that GETM checks same-warp conflicts at access time.
func (p *Protocol) EagerIntraWarp() bool { return true }

// CanBegin gates new transactions during a rollover drain.
func (p *Protocol) CanBegin() bool { return !p.draining }

// OnCanBegin registers a callback invoked whenever the CanBegin gate reopens
// after a drain. Without it, a warp queued behind the gate on a core with no
// other transaction in flight was never re-admitted — cores only retry the
// queue on endTx, and after a drain there is no endTx left to come — leaving
// the kernel deadlocked (see TestRolloverResumesQueuedWarps).
func (p *Protocol) OnCanBegin(fn func()) { p.canBeginHooks = append(p.canBeginHooks, fn) }

func (p *Protocol) notifyCanBegin() {
	for _, fn := range p.canBeginHooks {
		fn()
	}
}

// Begin implements tm.Protocol.
func (p *Protocol) Begin(w *tm.WarpTx) {
	p.activeTx++
	for w.GWID >= len(p.warpts) {
		p.warpts = append(p.warpts, 0)
		p.pendAbortTS = append(p.pendAbortTS, 0)
	}
}

// WarptsOf exposes a warp's current logical time (tests, stats).
func (p *Protocol) WarptsOf(gwid int) uint64 {
	if gwid >= len(p.warpts) {
		return 0
	}
	return p.warpts[gwid]
}

// accessState tracks one in-flight warp access: the caller's lanes/done plus
// the result buffer. Pooled; released when the last lane resolves.
type accessState struct {
	p         *Protocol
	w         *tm.WarpTx
	isWrite   bool
	lanes     []tm.LaneAccess
	results   []tm.AccessResult
	remaining int
	done      func([]tm.AccessResult)
	next      *accessState
}

// accessReq is one lane's VU request plus its reply plumbing. The three
// closures (submit, the VU Reply, and the down-crossbar delivery) are built
// once per pooled object and rebound via fields.
type accessReq struct {
	p         *Protocol
	st        *accessState
	idx       int // index into st.lanes / st.results
	lane      int
	part      int
	req       Request
	rep       Reply
	submit    func()
	deliverFn func()
	next      *accessReq
}

func (p *Protocol) getState() *accessState {
	st := p.statePool
	if st == nil {
		st = &accessState{p: p, results: make([]tm.AccessResult, 0, isa.WarpWidth)}
	} else {
		p.statePool = st.next
	}
	return st
}

func (st *accessState) release() {
	st.w = nil
	st.lanes = nil
	st.done = nil
	st.next = st.p.statePool
	st.p.statePool = st
}

func (p *Protocol) getAccessReq() *accessReq {
	ar := p.reqPool
	if ar == nil {
		ar = &accessReq{p: p}
		ar.submit = func() { ar.p.vus[ar.part].Submit(&ar.req) }
		ar.deliverFn = func() { ar.deliver() }
		ar.req.Reply = func(rep Reply) {
			// Reply travels back over the down crossbar.
			ar.rep = rep
			bytes := tm.ReplyBytes
			if rep.Status == StatusAbort {
				bytes = tm.AbortReplyBytes
			}
			ar.p.trans.ToCore(ar.part, ar.st.w.Core, bytes, ar.deliverFn)
		}
	} else {
		p.reqPool = ar.next
	}
	return ar
}

// deliver applies one VU reply at the core: record abort timestamps, resolve
// the issuing lane (and, for loads, every lane sharing the word), recycle the
// request, and complete the access when the last lane lands.
func (ar *accessReq) deliver() {
	st, p := ar.st, ar.p
	rep := ar.rep
	res := tm.AccessResult{
		Lane:    ar.lane,
		Value:   rep.Value,
		Abort:   rep.Status == StatusAbort,
		Cause:   rep.Cause,
		AbortTS: rep.AbortTS,
	}
	if res.Abort && rep.AbortTS > p.pendAbortTS[st.w.GWID] {
		p.pendAbortTS[st.w.GWID] = rep.AbortTS
	}
	if st.isWrite {
		st.results[ar.idx] = res
		st.remaining--
	} else {
		// Resolve all lanes sharing this word.
		addr := ar.req.Addr
		for j, la := range st.lanes {
			if la.Addr == addr {
				r := res
				r.Lane = la.Lane
				st.results[j] = r
				st.remaining--
			}
		}
	}
	ar.st = nil
	ar.next = p.reqPool
	p.reqPool = ar
	if st.remaining == 0 {
		st.done(st.results)
		st.release()
	}
}

// Access implements tm.Protocol: every lane's access is sent to its home
// partition's validation unit for eager conflict detection.
func (p *Protocol) Access(w *tm.WarpTx, isWrite bool, lanes []tm.LaneAccess, done func([]tm.AccessResult)) {
	if len(lanes) == 0 {
		done(nil)
		return
	}
	st := p.getState()
	st.w, st.isWrite, st.lanes, st.done = w, isWrite, lanes, done
	st.remaining = len(lanes)
	if cap(st.results) < len(lanes) {
		st.results = make([]tm.AccessResult, len(lanes))
	} else {
		st.results = st.results[:len(lanes)]
	}
	ts := p.warpts[w.GWID]

	for i, la := range lanes {
		if !isWrite {
			// Coalesce loads: lanes reading the same word share one request —
			// the first occurrence issues it, and its reply resolves all of
			// them (linear scan: at most WarpWidth lanes).
			dup := false
			for j := 0; j < i; j++ {
				if lanes[j].Addr == la.Addr {
					dup = true
					break
				}
			}
			if dup {
				st.results[i].Lane = la.Lane // fully overwritten by the shared reply
				continue
			}
		}
		ar := p.getAccessReq()
		ar.st = st
		ar.idx = i
		ar.lane = la.Lane
		ar.part = p.amap.Partition(la.Addr)
		ar.req.GWID = w.GWID
		ar.req.Warpts = ts
		ar.req.Addr = la.Addr
		ar.req.IsWrite = isWrite
		p.trans.ToPartition(w.Core, ar.part, tm.ReqBytes, ar.submit)
	}
}

// commitLog is one partition's slice of a warp's commit/cleanup message.
// Pooled; submit/done are prebuilt and the object recycles itself once the
// commit unit has processed the message.
type commitLog struct {
	p         *Protocol
	part      int
	core      int
	entries   []CommitEntry
	batchNext *commitLog   // chains the partitions of one commit
	batch     *commitBatch // ring arbitration: batch awaiting this log's ack
	submit    func()
	done      func()
	next      *commitLog // freelist
}

func (p *Protocol) getCommitLog(part, core int) *commitLog {
	cl := p.logPool
	if cl == nil {
		cl = &commitLog{p: p}
		cl.submit = func() { cl.p.cus[cl.part].Submit(cl.entries, cl.done) }
		cl.done = func() {
			q := cl.p
			q.pendingLogs--
			// Capture the ring-arbitration fields before recycling: the pool
			// may hand this object to another commit from inside a callback.
			b, part, core := cl.batch, cl.part, cl.core
			cl.batch = nil
			cl.entries = cl.entries[:0]
			cl.next = q.logPool
			q.logPool = cl
			q.maybeFinishDrain()
			if b != nil {
				// Ring arbitration: the ack travels back to the core; the
				// warp resumes only when every partition has acknowledged.
				q.trans.ToCore(part, core, tm.HeaderBytes, b.ackFn)
			}
		}
	} else {
		p.logPool = cl.next
	}
	cl.part, cl.core = part, core
	return cl
}

// commitBatch is one commit's deferred transmit step (after write-log
// serialization). Pooled with a prebuilt callback like the access objects.
type commitBatch struct {
	p        *Protocol
	head     *commitLog
	resume   func(tm.CommitOutcome)
	acksLeft int // ring arbitration: partition acks outstanding
	runFn    func()
	ackFn    func()
	next     *commitBatch
}

func (p *Protocol) getBatch(head *commitLog, resume func(tm.CommitOutcome)) *commitBatch {
	b := p.batchPool
	if b == nil {
		b = &commitBatch{p: p}
		b.runFn = func() {
			q := b.p
			n := 0
			for cl := b.head; cl != nil; {
				next := cl.batchNext
				cl.batchNext = nil
				bytes := tm.HeaderBytes
				for _, e := range cl.entries {
					if e.Commit {
						bytes += tm.CommitEntryBytes
					} else {
						bytes += tm.CleanupEntryBytes
					}
				}
				if q.cfg.RingArb {
					cl.batch = b
				}
				q.pendingLogs++
				q.trans.ToPartition(cl.core, cl.part, bytes, cl.submit)
				cl = next
				n++
			}
			if q.cfg.RingArb && n > 0 {
				// Ring arbitration: hold the warp (and the batch) until every
				// partition's commit unit has acknowledged; ackFn finishes.
				b.acksLeft = n
				b.head = nil
				return
			}
			// Recycle before resume: the warp may begin its next transaction
			// (and commit again) from inside the callback.
			fin := b.resume
			b.head, b.resume = nil, nil
			b.next = q.batchPool
			q.batchPool = b
			q.activeTx--
			q.maybeFinishDrain()
			fin(tm.CommitOutcome{})
		}
		b.ackFn = func() {
			b.acksLeft--
			if b.acksLeft > 0 {
				return
			}
			q := b.p
			fin := b.resume
			b.resume = nil
			b.next = q.batchPool
			q.batchPool = b
			q.activeTx--
			q.maybeFinishDrain()
			fin(tm.CommitOutcome{})
		}
	} else {
		p.batchPool = b.next
	}
	b.head, b.resume = head, resume
	return b
}

// Commit implements tm.Protocol. The core serializes the warp's write log
// (one entry per cycle), transmits per-partition commit/cleanup messages,
// and resumes the warp immediately: eager detection guarantees the commit
// succeeds, so nothing waits for acknowledgements. (Under cfg.RingArb the
// resume instead waits for every partition's ack — ring arbitration puts
// the commit back on the critical path.)
func (p *Protocol) Commit(w *tm.WarpTx, commitMask, abortMask isa.LaneMask, resume func(tm.CommitOutcome)) {
	total := 0
	for _, e := range w.Log.Writes {
		inCommit := commitMask.Bit(e.Lane)
		if !inCommit && !abortMask.Bit(e.Lane) {
			continue
		}
		part := p.amap.Partition(e.Addr)
		cl := p.partLog[part]
		if cl == nil {
			cl = p.getCommitLog(part, w.Core)
			p.partLog[part] = cl
		}
		cl.entries = append(cl.entries, CommitEntry{
			Addr:   e.Addr,
			Data:   e.Value,
			Writes: e.Writes,
			Commit: inCommit,
		})
		total++
	}
	// Chain this commit's logs in ascending partition order (map iteration
	// would randomize crossbar contention and thus timing between identical
	// runs) and clear the grouping scratch for the next commit.
	var head, tail *commitLog
	for part := range p.partLog {
		if cl := p.partLog[part]; cl != nil {
			if tail == nil {
				head = cl
			} else {
				tail.batchNext = cl
			}
			tail = cl
			p.partLog[part] = nil
		}
	}

	ts := p.warpts[w.GWID]
	// Record committed lanes for the replay checker before the log resets.
	if p.Record {
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if !commitMask.Bit(lane) {
				continue
			}
			reads, writes := w.Log.LaneEntries(lane)
			p.seq++
			p.Committed = append(p.Committed, tm.CommittedTx{
				GWID:     w.GWID,
				Lane:     lane,
				SerialTS: (p.epoch << 48) | ts,
				Seq:      p.seq,
				Reads:    reads,
				Writes:   writes,
			})
		}
	}

	// Advance warpts past every conflict observed by aborted lanes.
	if abortMask != 0 {
		next := ts
		if pend := p.pendAbortTS[w.GWID]; pend > next {
			next = pend
		}
		p.warpts[w.GWID] = next + 1
	}
	p.pendAbortTS[w.GWID] = 0

	// Serialize the write log at one entry per cycle, then transmit. The
	// warp resumes right after serialization — commits are off the critical
	// path (no validation, no acks).
	p.eng.Schedule(sim.Cycle(total), p.getBatch(head, resume).runFn)
}

// LockedGranules sums live write reservations across all partitions; it must
// be zero after a run (invariant check used by integration tests).
func (p *Protocol) LockedGranules() int {
	n := 0
	for _, vu := range p.vus {
		n += vu.Meta.LockedEntries()
	}
	return n
}

// StallOccupancy returns the current total stall-buffer occupancy.
func (p *Protocol) StallOccupancy() int {
	n := 0
	for _, vu := range p.vus {
		n += vu.Stall.Occupancy()
	}
	return n
}
