package core

import (
	"fmt"

	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/stats"
	"getm/internal/tm"
	"getm/internal/trace"
)

// Status is a validation unit's decision for one access.
type Status uint8

// VU decisions.
const (
	StatusSuccess Status = iota
	StatusAbort
)

// Request is one transactional access arriving at a validation unit.
type Request struct {
	GWID    int
	Warpts  uint64
	Addr    uint64 // word-aligned data address
	IsWrite bool
	// Reply receives the decision. Queued requests reply only after they
	// are released and re-validated.
	Reply func(Reply)
}

// Reply is the VU's answer.
type Reply struct {
	Status  Status
	Value   uint64 // load data on success
	Cause   tm.AbortCause
	AbortTS uint64 // newest timestamp observed; the core advances warpts past it
}

// VU is a GETM validation unit, colocated with one LLC partition (Fig 5).
// It owns the partition's metadata table and stall buffer and carries out
// the Fig 6 flowchart for every transactional access at a service rate of
// one request per cycle.
type VU struct {
	cfg   Config
	eng   *sim.Engine
	part  *mem.Partition
	Meta  *MetaTable
	Stall *StallBuffer

	nextService sim.Cycle

	// AccessCycles records per-request metadata latency (Fig 13).
	AccessCycles stats.Hist
	Requests     uint64
	Queued       uint64
	AbortsWAR    uint64
	AbortsWAWRAW uint64
	AbortsFull   uint64
	Overflows    uint64

	// onTimestampHighWater is invoked when a timestamp crosses the rollover
	// threshold (wired by the rollover coordinator).
	onTimestampHighWater func()
	rolloverArmed        bool
	rec                  *trace.Recorder

	// opPool recycles vuOp objects (single goroutine per machine, no
	// locking); an op reaches the VU through its v field while in use.
	opPool *vuOp
}

// vuOp carries one request through the VU pipeline. Pooled: the process,
// retry, and reply callbacks are built once per object, so a steady-state
// access schedules engine events without allocating.
type vuOp struct {
	v   *VU
	req *Request
	rep Reply
	// extra is the LLC access delay charged after the decision (loads).
	extra sim.Cycle
	// stalled is this op's stall-buffer node; its Retry re-enters process.
	stalled   StalledReq
	processFn func()
	replyFn   func()
	next      *vuOp
}

func (v *VU) getOp(req *Request) *vuOp {
	op := v.opPool
	if op == nil {
		op = opStock.Get()
	}
	if op == nil {
		op = &vuOp{}
		op.processFn = func() { op.v.process(op, false) }
		op.stalled.Retry = func() { op.v.process(op, true) }
		op.replyFn = func() {
			if d := op.extra; d > 0 {
				// Load data access latency: charged after the decision.
				op.extra = 0
				op.v.eng.Schedule(d, op.replyFn)
				return
			}
			// Recycle before Reply: the callback may submit a fresh request.
			req, rep, v := op.req, op.rep, op.v
			op.req, op.v = nil, nil
			op.next = v.opPool
			v.opPool = op
			req.Reply(rep)
		}
	} else {
		v.opPool = op.next
	}
	op.v, op.req = v, req
	return op
}

// NewVU builds a validation unit for one partition. preciseEntries and
// approxEntries are this partition's share of the GPU-wide budgets.
func NewVU(cfg Config, eng *sim.Engine, part *mem.Partition, preciseEntries, approxEntries int, rng *sim.RNG) *VU {
	return &VU{
		cfg:           cfg,
		eng:           eng,
		part:          part,
		Meta:          NewMetaTable(cfg, preciseEntries, approxEntries, rng),
		Stall:         NewStallBuffer(cfg.StallLines, cfg.StallEntriesPerLine),
		AccessCycles:  stats.Hist{Buckets: make([]uint64, 64)},
		rolloverArmed: cfg.TSBits < 64,
	}
}

// SetHighWaterHook registers the rollover trigger callback.
func (v *VU) SetHighWaterHook(fn func()) { v.onTimestampHighWater = fn }

// SetTrace attaches the machine-wide event recorder (nil disables; every
// trace helper below starts with a single pointer compare, so the disabled
// hot path stays allocation-free — see TestGETMStepAllocs).
func (v *VU) SetTrace(rec *trace.Recorder) { v.rec = rec }

func (v *VU) traceRequest(req *Request) {
	if v.rec == nil {
		return
	}
	isW := uint64(0)
	if req.IsWrite {
		isW = 1
	}
	v.rec.Emit(trace.SrcCore, trace.KVURequest, int32(v.part.ID),
		req.Addr, req.Warpts, uint64(req.GWID), isW)
}

// traceOutcome records a Fig 6 decision with the granule metadata after it;
// outcome is one of trace.VUSuccess/VUAbort/VUQueue.
func (v *VU) traceOutcome(req *Request, outcome uint8, cause tm.AbortCause, e *Entry) {
	if v.rec == nil {
		return
	}
	v.rec.Emit(trace.SrcCore, trace.KVUOutcome, int32(v.part.ID),
		req.Addr, e.WTS, e.RTS, trace.PackVUOutcome(outcome, uint8(cause), e.Writes, e.Owner))
}

func (v *VU) traceRelease(granule uint64, remaining int, committed bool) {
	if v.rec == nil {
		return
	}
	c := uint64(0)
	if committed {
		c = 1
	}
	v.rec.Emit(trace.SrcCore, trace.KVURelease, int32(v.part.ID),
		granule, uint64(remaining), c, 0)
}

func (v *VU) traceStall(kind trace.Kind, granule, warpts uint64) {
	if v.rec == nil {
		return
	}
	v.rec.Emit(trace.SrcCore, kind, int32(v.part.ID),
		granule, warpts, uint64(v.Stall.Occupancy()), 0)
}

// Submit delivers a request to the VU (called when the up-crossbar message
// arrives). Service is serialized at one request per cycle.
func (v *VU) Submit(req *Request) {
	start := v.eng.Now()
	if v.nextService > start {
		start = v.nextService
	}
	v.nextService = start + 1
	v.eng.At(start, v.getOp(req).processFn)
}

// process runs the Fig 6 flowchart for op's request. retried marks
// stall-buffer re-entries (they have already been counted as queued).
func (v *VU) process(op *vuOp, retried bool) {
	req := op.req
	v.Requests++
	v.traceRequest(req)
	granule := v.cfg.GranuleOf(req.Addr)
	e, metaCycles, overflowed := v.Meta.Lookup(granule)
	if overflowed {
		v.Overflows++
	}
	v.AccessCycles.Add(int(metaCycles))
	// The metadata access occupies the VU for its extra cycles.
	if metaCycles > 1 {
		v.nextService += metaCycles - 1
	}

	if req.IsWrite {
		v.processStore(op, e, metaCycles)
	} else {
		v.processLoad(op, e, metaCycles)
	}
	// If the request finished (any outcome) leaving the granule unlocked,
	// wake the next waiter: a retried load that succeeds takes no lock, so
	// without this the remaining queued requests would never be released.
	if e.Writes == 0 {
		v.wakeNext(granule)
	}
}

// wakeNext retries the oldest request stalled on granule, if any.
func (v *VU) wakeNext(granule uint64) {
	if r := v.Stall.Release(granule); r != nil {
		v.traceStall(trace.KStallWake, granule, r.Warpts)
		v.eng.Schedule(1, r.Retry)
	}
}

// wakeOlder retries every request stalled on granule whose warpts is below
// its new reservation's wts: the new owner's own requests, which pass by
// owner bypass, and older ones, which abort. Left queued behind the new
// owner they would break queue's invariant (DESIGN.md §4).
func (v *VU) wakeOlder(granule, wts uint64) {
	for r := v.Stall.oldest(granule); r != nil && r.Warpts < wts; r = v.Stall.oldest(granule) {
		v.wakeNext(granule)
	}
}

// processLoad: owner check ①, timestamp check ③, lock check ⑤ (Fig 6 left).
func (v *VU) processLoad(op *vuOp, e *Entry, metaCycles sim.Cycle) {
	req := op.req
	switch {
	case e.Writes > 0 && e.Owner == req.GWID:
		// ② Owner bypass: the line is locked by this transaction.
		if req.Warpts > e.RTS {
			e.RTS = req.Warpts
		}
		v.bumpTS(e.RTS)
		v.traceOutcome(req, trace.VUSuccess, tm.CauseNone, e)
		v.replyLoad(op, metaCycles)
	case req.Warpts >= e.WTS:
		if e.Writes > 0 {
			if v.cfg.FirstWriterWins {
				// First-writer-wins resolution: the reservation holder wins;
				// the requester aborts instead of waiting in the stall buffer.
				v.AbortsWAR++
				v.traceOutcome(req, trace.VUAbort, tm.CauseWAR, e)
				op.rep = Reply{Status: StatusAbort, Cause: tm.CauseWAR, AbortTS: e.WTS}
				v.eng.Schedule(metaCycles, op.replyFn)
				return
			}
			// ⑦ Queue (RAW): locked by a logically older transaction.
			v.queue(op, e, metaCycles)
			return
		}
		// ⑥ Success: update rts.
		if req.Warpts > e.RTS {
			e.RTS = req.Warpts
		}
		v.bumpTS(e.RTS)
		v.traceOutcome(req, trace.VUSuccess, tm.CauseNone, e)
		v.replyLoad(op, metaCycles)
	default:
		// ④ Abort (WAR): written by a logically later transaction.
		v.AbortsWAR++
		v.traceOutcome(req, trace.VUAbort, tm.CauseWAR, e)
		op.rep = Reply{Status: StatusAbort, Cause: tm.CauseWAR, AbortTS: e.WTS}
		v.eng.Schedule(metaCycles, op.replyFn)
	}
}

// processStore: owner check ①, timestamp check ③, lock check ⑤ (Fig 6 right).
func (v *VU) processStore(op *vuOp, e *Entry, metaCycles sim.Cycle) {
	req := op.req
	switch {
	case e.Writes > 0 && e.Owner == req.GWID:
		// ② Owner bypass: wts was set by the previous write; just count.
		e.Writes++
		v.traceOutcome(req, trace.VUSuccess, tm.CauseNone, e)
		op.rep = Reply{Status: StatusSuccess}
		v.eng.Schedule(metaCycles, op.replyFn)
	case req.Warpts >= e.WTS && req.Warpts >= e.RTS:
		if e.Writes > 0 {
			if v.cfg.FirstWriterWins {
				// First-writer-wins resolution: abort rather than queue.
				v.AbortsWAWRAW++
				v.traceOutcome(req, trace.VUAbort, tm.CauseWAWRAW, e)
				op.rep = Reply{Status: StatusAbort, Cause: tm.CauseWAWRAW, AbortTS: maxU64(e.WTS, e.RTS)}
				v.eng.Schedule(metaCycles, op.replyFn)
				return
			}
			// ⑦ Queue (WAW): reserved by a logically older transaction.
			v.queue(op, e, metaCycles)
			return
		}
		// ⑥ Success: reserve the granule.
		e.WTS = req.Warpts + 1
		e.Owner = req.GWID
		e.Writes = 1
		v.bumpTS(e.WTS)
		v.traceOutcome(req, trace.VUSuccess, tm.CauseNone, e)
		op.rep = Reply{Status: StatusSuccess}
		v.eng.Schedule(metaCycles, op.replyFn)
		v.wakeOlder(e.Granule, e.WTS)
	default:
		// ④ Abort (WAW or RAW): written or observed by a later transaction.
		v.AbortsWAWRAW++
		v.traceOutcome(req, trace.VUAbort, tm.CauseWAWRAW, e)
		op.rep = Reply{Status: StatusAbort, Cause: tm.CauseWAWRAW, AbortTS: maxU64(e.WTS, e.RTS)}
		v.eng.Schedule(metaCycles, op.replyFn)
	}
}

// queue places a request in the stall buffer (aborting it if full). The
// request must be logically younger than the reservation owner — the
// invariant that makes the wait-for graph acyclic; wakeOlder keeps it true
// when the reservation changes hands (DESIGN.md §4, stall-buffer wake-up).
func (v *VU) queue(op *vuOp, e *Entry, metaCycles sim.Cycle) {
	req := op.req
	if req.Warpts+1 < e.WTS {
		panic(fmt.Sprintf("core: queued request (ts %d) not younger than reservation (wts %d)", req.Warpts, e.WTS))
	}
	op.stalled.Granule = v.cfg.GranuleOf(req.Addr)
	op.stalled.Warpts = req.Warpts
	if !v.Stall.Enqueue(&op.stalled) {
		v.AbortsFull++
		v.traceOutcome(req, trace.VUAbort, tm.CauseStallFull, e)
		v.traceStall(trace.KStallReject, op.stalled.Granule, req.Warpts)
		op.rep = Reply{Status: StatusAbort, Cause: tm.CauseStallFull, AbortTS: maxU64(e.WTS, e.RTS)}
		v.eng.Schedule(metaCycles, op.replyFn)
		return
	}
	v.traceOutcome(req, trace.VUQueue, tm.CauseNone, e)
	v.traceStall(trace.KStallEnq, op.stalled.Granule, req.Warpts)
	v.Queued++
}

// replyLoad returns the data word for a load that passed the checks. The
// value is captured at the decision instant — the check and the data access
// are one pipelined operation in the validation unit, so a commit-unit write
// arriving during the access latency must not be observable by a load that
// was already ordered before it (its rts was taken at the check). The
// partition's access latency is still charged before the reply leaves.
func (v *VU) replyLoad(op *vuOp, metaCycles sim.Cycle) {
	op.rep = Reply{Status: StatusSuccess, Value: v.part.ReadNow(op.req.Addr)}
	op.extra = v.part.AccessDelay(op.req.Addr)
	v.eng.Schedule(metaCycles, op.replyFn)
}

// ReleaseGranule decrements the write reservation after a commit/cleanup
// entry is processed; when it reaches zero, the oldest stalled request for
// the granule is retried. committed distinguishes commit data writes from
// abort cleanups (tracing only).
func (v *VU) ReleaseGranule(granule uint64, n int, committed bool) {
	remaining := v.Meta.Release(granule, n)
	v.traceRelease(granule, remaining, committed)
	if remaining == 0 {
		if r := v.Stall.Release(granule); r != nil {
			v.traceStall(trace.KStallWake, granule, r.Warpts)
			// Re-entry consumes a fresh VU slot.
			v.eng.Schedule(1, r.Retry)
		}
	}
}

// bumpTS checks the rollover high-water mark.
func (v *VU) bumpTS(ts uint64) {
	if v.rolloverArmed && ts >= v.cfg.RolloverThreshold() && v.onTimestampHighWater != nil {
		v.onTimestampHighWater()
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// CommitEntry is one element of a commit/cleanup log.
type CommitEntry struct {
	Addr   uint64 // word address
	Data   uint64
	Writes int
	// Commit is true for committing lanes (write the data) and false for
	// aborted lanes (cleanup only).
	Commit bool
}

// CU is a GETM commit unit: it receives write logs from SIMT cores,
// coalesces entries into 32-byte regions, writes data to the LLC at the
// configured bandwidth, and releases write reservations. There are no acks —
// GETM commits are off the critical path.
type CU struct {
	cfg  Config
	eng  *sim.Engine
	part *mem.Partition
	vu   *VU

	nextFree sim.Cycle

	CommitsProcessed uint64
	EntriesWritten   uint64
	BytesWritten     uint64

	// regions is per-Submit coalescing scratch (only its size is read);
	// jobPool recycles the deferred apply step with its prebuilt callback.
	regions tm.AddrSet
	jobPool *cuJob

	rec *trace.Recorder
}

// SetTrace attaches the machine-wide event recorder (nil disables).
func (c *CU) SetTrace(rec *trace.Recorder) { c.rec = rec }

// NewCU builds the commit unit colocated with vu.
func NewCU(cfg Config, eng *sim.Engine, part *mem.Partition, vu *VU) *CU {
	return &CU{cfg: cfg, eng: eng, part: part, vu: vu}
}

// cuJob is one commit/cleanup message's deferred apply step.
type cuJob struct {
	c       *CU
	entries []CommitEntry
	done    func()
	runFn   func()
	next    *cuJob
}

func (c *CU) getJob(entries []CommitEntry, done func()) *cuJob {
	j := c.jobPool
	if j == nil {
		j = jobStock.Get()
	}
	if j == nil {
		j = &cuJob{}
		j.runFn = func() {
			cu := j.c
			for _, e := range j.entries {
				if e.Commit {
					cu.part.WriteNow(e.Addr, e.Data)
					cu.EntriesWritten++
				}
				cu.vu.ReleaseGranule(cu.cfg.GranuleOf(e.Addr), e.Writes, e.Commit)
			}
			// Recycle before done: the callback may submit another log.
			fin := j.done
			j.c, j.entries, j.done = nil, nil, nil
			j.next = cu.jobPool
			cu.jobPool = j
			if fin != nil {
				fin()
			}
		}
	} else {
		c.jobPool = j.next
	}
	j.c, j.entries, j.done = c, entries, done
	return j
}

// Submit hands a commit/cleanup log to the CU (on up-crossbar delivery).
// Entries from one message are processed as a unit: data writes coalesced
// to 32-byte regions and drained at CommitBytesPerCycle. done (optional)
// fires after the message's releases have taken effect — the rollover drain
// uses it to know no cleanup is still in flight.
//
// The CU shares the metadata table and LLC port with its VU, so processing
// a commit occupies the VU's service timeline: an access delivered after a
// commit message cannot be checked before the commit's releases and data
// writes have taken effect. (Without this ordering point, a warp's next
// transaction could owner-bypass-read a granule whose previous commit is
// still draining through the commit unit and observe pre-commit data.)
func (c *CU) Submit(entries []CommitEntry, done func()) {
	start := c.eng.Now()
	if c.nextFree > start {
		start = c.nextFree
	}
	if c.vu.nextService > start {
		start = c.vu.nextService
	}
	// Coalesce committed writes into 32-byte regions for bandwidth cost.
	c.regions.Reset()
	for _, e := range entries {
		if e.Commit {
			c.regions.Add(e.Addr / 32)
		}
	}
	bytes := uint64(c.regions.Len() * 32)
	cycles := sim.Cycle((bytes + uint64(c.cfg.CommitBytesPerCycle) - 1) / uint64(c.cfg.CommitBytesPerCycle))
	if cycles == 0 {
		cycles = 1
	}
	c.nextFree = start + cycles
	c.vu.nextService = start + cycles
	c.BytesWritten += bytes
	c.CommitsProcessed++
	if c.rec != nil {
		c.rec.Emit(trace.SrcCore, trace.KCommitMsg, int32(c.part.ID),
			uint64(len(entries)), bytes, 0, uint64(cycles))
	}

	c.eng.At(start+cycles, c.getJob(entries, done).runFn)
}
