package simt

import (
	"fmt"
	"sync"

	"getm/internal/isa"
	"getm/internal/sim"
	"getm/internal/stats"
	"getm/internal/tm"
	"getm/internal/trace"
)

// csRetryDelay paces critical-section retry rounds (loop overhead of the
// spin idiom in Fig 1).
const csRetryDelay sim.Cycle = 10

// Stats aggregates one core's execution counters.
type Stats struct {
	Commits       uint64
	Aborts        uint64
	AbortsByCause stats.Counters
	TxExecCycles  uint64
	TxWaitCycles  uint64
	Instructions  uint64
	TxAttempts    uint64
	// TxLaneAttempts counts lane×attempt pairs: every lane that enters an
	// attempt eventually commits or aborts exactly once, so
	// Commits+Aborts == TxLaneAttempts (the accounting invariant).
	TxLaneAttempts uint64
}

// Core models one SIMT core: warp contexts, the issue stage (one warp
// instruction per cycle, greedy-then-oldest selection), and the
// transactional execution machinery.
type Core struct {
	ID       int
	cfg      Config
	eng      *sim.Engine
	protocol tm.Protocol
	memsys   MemSystem
	rng      *sim.RNG
	dispatch func() *isa.Program

	warps []*Warp

	txActive int
	txQueue  []*Warp

	issuePending bool
	nextIssue    sim.Cycle
	lastWarp     int
	issueFn      func() // c.issue, bound once (a method value allocates)

	// storePool is a freelist of fire-and-forget store buffers (single
	// goroutine per machine, so no locking).
	storePool *storeBuf
	// logPool is the free list of transaction logs. Logs belong to
	// transaction slots: a warp takes one in startTx and returns it in endTx,
	// so a core never holds more logs than its peak number of concurrent
	// transactions. The list is per core, like storePool, so the hot path
	// needs no handle on the machine; Recycle hands the logs to the
	// process-wide pool for the next run.
	logPool []*tm.TxLog

	rec *trace.Recorder

	Stats Stats
}

// SetTrace attaches the machine-wide event recorder (nil disables; every
// emit below is behind a single pointer compare — see TestGETMStepAllocs).
func (c *Core) SetTrace(rec *trace.Recorder) { c.rec = rec }

// ActiveTx returns the number of warps currently inside a transaction
// (sampled by the telemetry probes).
func (c *Core) ActiveTx() int { return c.txActive }

// NewCore builds a core. dispatch supplies warp programs; it is called again
// whenever a warp finishes one (returning nil retires the warp).
func NewCore(id int, eng *sim.Engine, cfg Config, protocol tm.Protocol, memsys MemSystem, rng *sim.RNG, dispatch func() *isa.Program) *Core {
	c := &Core{
		ID:       id,
		cfg:      cfg,
		eng:      eng,
		protocol: protocol,
		memsys:   memsys,
		rng:      rng,
		dispatch: dispatch,
	}
	c.Stats.AbortsByCause = stats.Counters{}
	c.issueFn = c.issue
	// Warp contexts are built lazily in Start: a warp's register file alone
	// is WarpWidth×NumRegs words, and at small workload scales most of a
	// core's slots never receive a program, so eager construction would
	// dominate the whole suite's allocations.
	c.warps = make([]*Warp, cfg.WarpsPerCore)
	// If the protocol's CanBegin gate can reopen (GETM after a rollover
	// drain), ask to be notified so warps queued behind it are re-admitted
	// even when no endTx is left to retry the queue.
	if g, ok := protocol.(interface{ OnCanBegin(func()) }); ok {
		g.OnCanBegin(c.admitQueued)
	}
	return c
}

// admitQueued starts queued warps while the admission gate allows it; called
// when a protocol gate reopens (endTx has its own inline copy of this loop).
func (c *Core) admitQueued() {
	admitted := false
	for len(c.txQueue) > 0 && c.canBegin() {
		next := c.txQueue[0]
		c.txQueue = c.txQueue[1:]
		c.Stats.TxWaitCycles += uint64(c.eng.Now() - next.waitStart)
		c.startTx(next)
		admitted = true
	}
	if admitted {
		c.scheduleIssue()
	}
}

// newWarpFor constructs the warp context for a slot with its prebound
// completion and commit closures (allocated once per warp, here).
func (c *Core) newWarpFor(slot int) *Warp {
	w := newWarp(slot, c.ID*c.cfg.WarpsPerCore+slot)
	w.accDone = func(results []tm.AccessResult) { c.txAccessDone(w, results) }
	w.loadDone = func(loadVals []uint64) {
		for i, lane := range w.loadLanes {
			w.regs[lane][w.loadDst] = loadVals[i]
		}
		c.wake(w)
	}
	w.wakeFn = func() { c.wake(w) }
	w.commitFn = func() { c.txCommit(w) }
	w.resumeFn = func(out tm.CommitOutcome) { c.txCommitDone(w, out) }
	w.retryFn = func() { c.txRetry(w) }
	c.warps[slot] = w
	return w
}

// Start assigns initial programs and begins issuing. Slots whose first
// dispatch returns nil stay nil in c.warps (a nil warp is a retired warp);
// dispatch is still consulted once per slot, in slot order, so program
// distribution matches an eager build exactly.
func (c *Core) Start() {
	for slot := 0; slot < c.cfg.WarpsPerCore; slot++ {
		if p := c.dispatch(); p != nil {
			c.newWarpFor(slot).assign(p)
		}
	}
	c.scheduleIssue()
}

// Recycle hands the warps' register files and the core's transaction logs
// to the next cores built in this process. The core must not run
// afterwards.
func (c *Core) Recycle() {
	for _, w := range c.warps {
		if w == nil {
			continue
		}
		regFiles.Put(w.regs)
		w.regs = nil
		if w.txLog != nil {
			txLogs.Put(w.txLog)
			w.txLog = nil
		}
	}
	for _, l := range c.logPool {
		txLogs.Put(l)
	}
	c.logPool = nil
}

// AllDone reports whether every warp has retired.
func (c *Core) AllDone() bool {
	for _, w := range c.warps {
		if w != nil && w.state != wDone {
			return false
		}
	}
	return true
}

// StuckWarps describes non-retired warps (deadlock diagnostics).
func (c *Core) StuckWarps() []string {
	var out []string
	for _, w := range c.warps {
		if w != nil && w.state != wDone {
			out = append(out, fmt.Sprintf("core %d warp %d state %d pc %d inTx %v live %032b",
				c.ID, w.slot, w.state, w.top().pc, w.inTx, w.live()))
		}
	}
	return out
}

// AsyncAbort applies an asynchronous abort notice (EAPG broadcasts) to the
// matching warp's live lanes. Lanes already in the commit sequence are left
// to value validation.
func (c *Core) AsyncAbort(n tm.AbortNotice) {
	slot := n.GWID - c.ID*c.cfg.WarpsPerCore
	if slot < 0 || slot >= len(c.warps) {
		return
	}
	w := c.warps[slot]
	if w == nil || !w.inTx || w.committing {
		return
	}
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if n.Lanes.Bit(lane) && w.live().Bit(lane) {
			c.abortLane(w, lane, n.Cause)
		}
	}
	// If the whole warp is now dead and it sits between instructions, skip
	// straight to the commit point for cleanup/retry.
	if w.live() == 0 && w.state == wReady && len(w.frames) == 1 {
		w.top().pc = w.commitPC
	}
}

// --- scheduling ---

func (c *Core) wake(w *Warp) {
	if w.state == wBlocked {
		w.state = wReady
	}
	c.scheduleIssue()
}

func (c *Core) anyReady() bool {
	for _, w := range c.warps {
		if w != nil && w.state == wReady {
			return true
		}
	}
	return false
}

func (c *Core) scheduleIssue() {
	if c.issuePending || !c.anyReady() {
		return
	}
	c.issuePending = true
	delay := sim.Cycle(0)
	if now := c.eng.Now(); c.nextIssue > now {
		delay = c.nextIssue - now
	}
	c.eng.Schedule(delay, c.issueFn)
}

// pickWarp implements greedy-then-oldest: keep issuing from the same warp
// until it stalls, then fall back to the oldest (lowest slot) ready warp.
func (c *Core) pickWarp() *Warp {
	if w := c.warps[c.lastWarp]; w != nil && w.state == wReady {
		return w
	}
	for _, w := range c.warps {
		if w != nil && w.state == wReady {
			c.lastWarp = w.slot
			return w
		}
	}
	return nil
}

func (c *Core) issue() {
	c.issuePending = false
	w := c.pickWarp()
	if w == nil {
		return
	}
	c.nextIssue = c.eng.Now() + 1
	if op := w.curOp(); op != nil {
		c.Stats.Instructions++
		if c.rec != nil {
			c.rec.Emit(trace.SrcSIMT, trace.KIssue, int32(c.ID),
				uint64(w.gwid), uint64(w.top().pc), uint64(op.Kind), 0)
		}
	}
	c.execStep(w)
	c.scheduleIssue()
}

// --- op execution ---

func (c *Core) execStep(w *Warp) {
	op := w.curOp()
	if op == nil {
		c.frameDone(w)
		return
	}
	switch op.Kind {
	case isa.Compute:
		w.top().pc++
		w.state = wBlocked
		c.eng.Schedule(sim.Cycle(op.Latency), w.wakeFn)
	case isa.MovImm:
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if w.effMask(op).Bit(lane) {
				w.regs[lane][op.Dst] = uint64(op.LaneImm(lane))
			}
		}
		w.top().pc++
	case isa.AddImm:
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if w.effMask(op).Bit(lane) {
				w.regs[lane][op.Dst] = w.regs[lane][op.Src] + uint64(op.LaneImm(lane))
			}
		}
		w.top().pc++
	case isa.Load, isa.Store:
		if w.inTx && len(w.frames) == 1 {
			c.execTxAccess(w, op, op.Kind == isa.Store)
		} else {
			c.execMemAccess(w, op, op.Kind == isa.Store)
		}
	case isa.TxBegin:
		c.execTxBegin(w, op)
	case isa.TxCommit:
		c.execTxCommit(w)
	case isa.CritSection:
		c.execCritSection(w, op)
	case isa.AtomicAdd:
		c.execAtomicAdd(w, op)
	default:
		panic(fmt.Sprintf("simt: unknown op kind %v", op.Kind))
	}
}

// execAtomicAdd issues per-lane atomic adds; the warp blocks until all lanes
// receive their old values (atomics return a result, unlike plain stores).
func (c *Core) execAtomicAdd(w *Warp, op *isa.Op) {
	mask := w.effMask(op)
	w.top().pc++
	if mask == 0 {
		return
	}
	outstanding := 0
	w.state = wBlocked
	dst := op.Dst
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !mask.Bit(lane) {
			continue
		}
		lane := lane
		outstanding++
		c.memsys.AtomicAdd(c.ID, op.Addr[lane], uint64(op.LaneImm(lane)), func(old uint64) {
			w.regs[lane][dst] = old
			outstanding--
			if outstanding == 0 {
				c.wake(w)
			}
		})
	}
}

// frameDone pops a finished frame (critical-section body) or retires /
// redispatches the warp at main-program end.
func (c *Core) frameDone(w *Warp) {
	if len(w.frames) > 1 {
		f := w.top()
		w.frames = w.frames[:len(w.frames)-1]
		w.state = wBlocked
		f.onDone(w)
		return
	}
	if w.pendingStores > 0 {
		// Drain fire-and-forget stores before retiring the program.
		w.state = wBlocked
		w.fence(w.wakeFn)
		return
	}
	if p := c.dispatch(); p != nil {
		w.assign(p)
		c.scheduleIssue()
		return
	}
	w.state = wDone
}

// execMemAccess handles non-transactional coalesced loads/stores. Stores
// are fire-and-forget (the warp continues immediately, as GPU global stores
// do); loads block the warp, and a load of a word with an outstanding store
// first drains the store queue (scoreboard).
func (c *Core) execMemAccess(w *Warp, op *isa.Op, isWrite bool) {
	mask := w.effMask(op)
	if mask == 0 {
		w.top().pc++
		return
	}

	if isWrite {
		// Stores outlive this instruction (the warp keeps running), so their
		// operand buffers come from the core's pool, recycled on completion.
		sb := c.getStoreBuf(w)
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if !mask.Bit(lane) {
				continue
			}
			sb.addrs = append(sb.addrs, op.Addr[lane])
			sb.vals = append(sb.vals, w.storeValue(op, lane))
		}
		for _, a := range sb.addrs {
			w.storeWords[a]++
		}
		w.pendingStores++
		w.top().pc++
		sb.scoreboard = w.storeWords // capture: assign() swaps in a fresh map
		c.memsys.Access(c.ID, true, sb.addrs, sb.vals, sb.done)
		return // warp stays ready
	}

	lanes, addrs := w.loadLanes[:0], w.loadAddrs[:0]
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !mask.Bit(lane) {
			continue
		}
		lanes = append(lanes, lane)
		addrs = append(addrs, op.Addr[lane])
	}
	w.loadLanes, w.loadAddrs = lanes, addrs

	if w.storeConflict(addrs) {
		// Read-after-write through memory: drain outstanding stores, then
		// re-issue this load (pc has not advanced).
		w.state = wBlocked
		w.fence(w.wakeFn)
		return
	}
	w.top().pc++
	w.state = wBlocked
	w.loadDst = op.Dst
	c.memsys.Access(c.ID, false, addrs, nil, w.loadDone)
}

// storeBuf carries one fire-and-forget store's operands until the memory
// system completes it; done is prebound once per pooled buffer.
type storeBuf struct {
	c          *Core
	w          *Warp
	addrs      []uint64
	vals       []uint64
	scoreboard map[uint64]int
	done       func([]uint64)
	next       *storeBuf
}

// getStoreBuf pops a pooled store buffer (or builds one, amortized away).
func (c *Core) getStoreBuf(w *Warp) *storeBuf {
	sb := c.storePool
	if sb == nil {
		sb = &storeBuf{
			c:     c,
			addrs: make([]uint64, 0, isa.WarpWidth),
			vals:  make([]uint64, 0, isa.WarpWidth),
		}
		sb.done = func([]uint64) { sb.storeDone() }
	} else {
		c.storePool = sb.next
	}
	sb.w = w
	return sb
}

// storeDone retires one store: scoreboard decrements, fence draining, and
// buffer recycling.
func (sb *storeBuf) storeDone() {
	for _, a := range sb.addrs {
		if sb.scoreboard[a] > 0 {
			sb.scoreboard[a]--
		}
	}
	w, c := sb.w, sb.c
	sb.addrs = sb.addrs[:0]
	sb.vals = sb.vals[:0]
	sb.scoreboard = nil
	sb.w = nil
	sb.next = c.storePool
	c.storePool = sb
	w.pendingStores--
	c.drainFences(w)
}

// drainFences fires fence callbacks once the warp's store queue is empty.
func (c *Core) drainFences(w *Warp) {
	if w.pendingStores != 0 || len(w.fenceFns) == 0 {
		return
	}
	fns := w.fenceFns
	w.fenceFns = nil
	for _, f := range fns {
		f()
	}
}

// execTxBegin starts a transaction, subject to the per-core concurrency
// throttle and any protocol gate (GETM's rollover drain).
func (c *Core) execTxBegin(w *Warp, op *isa.Op) {
	mask := op.EffMask(w.top().mask)
	if mask == 0 {
		w.top().pc++
		return
	}
	w.pendingTxMask = mask
	if !c.canBegin() {
		w.state = wBlocked
		w.waitStart = c.eng.Now()
		c.txQueue = append(c.txQueue, w)
		return
	}
	c.startTx(w)
}

func (c *Core) canBegin() bool {
	if c.cfg.MaxTxWarps > 0 && c.txActive >= c.cfg.MaxTxWarps {
		return false
	}
	if g, ok := c.protocol.(interface{ CanBegin() bool }); ok && !g.CanBegin() {
		return false
	}
	return true
}

// txLogs holds the transaction logs of recycled cores (Core.Recycle) for
// the next cores built in this process, on any goroutine. A recycled log's
// index tables may be larger than a new log's, but the Reset that opens
// every attempt invalidates all of their slots, and nothing iterates them.
var txLogs sync.Pool

func (c *Core) startTx(w *Warp) {
	c.txActive++
	if n := len(c.logPool); n > 0 {
		w.txLog = c.logPool[n-1]
		c.logPool = c.logPool[:n-1]
	} else if l, ok := txLogs.Get().(*tm.TxLog); ok {
		w.txLog = l
	} else {
		w.txLog = tm.NewTxLog()
	}
	f := w.top()
	w.inTx = true
	w.committing = false
	w.txBeginPC = f.pc
	w.commitPC = findCommit(f.ops, f.pc)
	w.txMask = w.pendingTxMask
	w.deadMask = 0
	w.attempts = 0
	c.beginAttempt(w)
	f.pc++
	w.state = wReady
}

func findCommit(ops []isa.Op, from int) int {
	for i := from; i < len(ops); i++ {
		if ops[i].Kind == isa.TxCommit {
			return i
		}
	}
	panic("simt: transaction without commit")
}

func (c *Core) beginAttempt(w *Warp) {
	c.Stats.TxAttempts++
	c.Stats.TxLaneAttempts += uint64(w.txMask.Count())
	if c.rec != nil {
		c.rec.Emit(trace.SrcTx, trace.KTxBegin, int32(c.ID),
			uint64(w.gwid), uint64(w.txMask), uint64(w.attempts), 0)
	}
	w.txLog.Reset()
	w.attemptID++
	w.warpTx = tm.WarpTx{GWID: w.gwid, Core: c.ID, Log: w.txLog, StartCycle: c.eng.Now()}
	c.protocol.Begin(&w.warpTx)
	w.attemptStart = c.eng.Now()
}

func (c *Core) abortLane(w *Warp, lane int, cause tm.AbortCause) {
	if w.deadMask.Bit(lane) {
		return
	}
	w.deadMask = w.deadMask.Set(lane)
	c.Stats.Aborts++
	c.Stats.AbortsByCause.Inc(cause.String(), 1)
	if c.rec != nil {
		c.rec.Emit(trace.SrcTx, trace.KTxAbort, int32(c.ID),
			uint64(w.gwid), uint64(lane), uint64(cause), 0)
		c.rec.Emit(trace.SrcSIMT, trace.KDiverge, int32(c.ID),
			uint64(w.gwid), uint64(w.live()), 0, 0)
	}
}

// execTxAccess drives a transactional warp memory instruction: redo-log
// forwarding, (for eager protocols) access-time intra-warp conflict checks,
// then the protocol's global access path.
func (c *Core) execTxAccess(w *Warp, op *isa.Op, isWrite bool) {
	mask := op.EffMask(w.live())
	f := w.top()
	if mask == 0 {
		// Every lane this op concerns is dead; skip forward. If the whole
		// warp is dead, jump to the commit point for cleanup.
		if w.live() == 0 {
			f.pc = w.commitPC
		} else {
			f.pc++
		}
		return
	}

	eager := c.protocol.EagerIntraWarp()
	send := w.sendBuf[:0]
	// Same-instruction writer tracking: at most WarpWidth distinct addresses,
	// so a linear-scanned stack array beats a map.
	var opAddrs [isa.WarpWidth]uint64
	var opMasks [isa.WarpWidth]isa.LaneMask
	nOp := 0
	writersOf := func(addr uint64) *isa.LaneMask {
		for i := 0; i < nOp; i++ {
			if opAddrs[i] == addr {
				return &opMasks[i]
			}
		}
		opAddrs[nOp] = addr
		opMasks[nOp] = 0
		nOp++
		return &opMasks[nOp-1]
	}
	dst := op.Dst

	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !mask.Bit(lane) {
			continue
		}
		addr := op.Addr[lane]
		if isWrite {
			val := w.storeValue(op, lane)
			wm := writersOf(addr)
			if eager {
				conf := (w.txLog.Conflicts(lane, addr, true) | *wm) & w.live()
				if conf != 0 {
					c.abortLane(w, lane, tm.CauseIntraWarp)
					continue
				}
			}
			*wm = wm.Set(lane)
			w.sendIdx[lane] = int8(len(send))
			send = append(send, tm.LaneAccess{Lane: lane, Addr: addr, Value: val})
		} else {
			if v, ok := w.txLog.Forward(lane, addr); ok {
				w.regs[lane][dst] = v
				continue
			}
			if v, ok := w.txLog.ForwardRead(lane, addr); ok {
				w.regs[lane][dst] = v
				continue
			}
			if eager {
				conf := w.txLog.Conflicts(lane, addr, false) & w.live()
				if conf != 0 {
					c.abortLane(w, lane, tm.CauseIntraWarp)
					continue
				}
			}
			w.sendIdx[lane] = int8(len(send))
			send = append(send, tm.LaneAccess{Lane: lane, Addr: addr})
		}
	}
	w.sendBuf = send

	if len(send) == 0 {
		if w.live() == 0 {
			f.pc = w.commitPC
		} else {
			f.pc++
		}
		return
	}

	f.pc++
	w.state = wBlocked
	w.accIsWrite = isWrite
	w.accDst = dst
	w.accAttempt = w.attemptID
	c.protocol.Access(&w.warpTx, isWrite, send, w.accDone)
}

// txAccessDone is the (per-warp prebound) completion callback for a
// transactional access: it applies per-lane results to the redo log and
// registers, then wakes the warp.
func (c *Core) txAccessDone(w *Warp, results []tm.AccessResult) {
	if w.attemptID != w.accAttempt {
		return // stale completion after the attempt ended
	}
	for _, r := range results {
		la := w.sendBuf[w.sendIdx[r.Lane]]
		if r.Abort {
			c.abortLane(w, r.Lane, r.Cause)
			continue
		}
		if !w.live().Bit(r.Lane) {
			continue // asynchronously aborted while in flight
		}
		if w.accIsWrite {
			w.txLog.RecordWrite(r.Lane, la.Addr, la.Value)
		} else {
			w.txLog.RecordRead(r.Lane, la.Addr, r.Value)
			w.regs[r.Lane][w.accDst] = r.Value
		}
	}
	if w.live() == 0 {
		w.top().pc = w.commitPC
	}
	c.wake(w)
}

// resolveIntraWarp finds, at commit time, a maximal prefix-greedy set of
// non-conflicting lanes; the rest abort (WarpTM's two-phase resolution).
func resolveIntraWarp(log *tm.TxLog, live isa.LaneMask) (losers isa.LaneMask) {
	var survivors isa.LaneMask
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !live.Bit(lane) {
			continue
		}
		// Scan the shared logs directly (allocation-free) instead of
		// materializing LaneEntries; the entry order within a lane matches.
		conflict := false
		for _, e := range log.Writes {
			if e.Lane == lane && log.Conflicts(lane, e.Addr, true)&survivors != 0 {
				conflict = true
				break
			}
		}
		if !conflict {
			for _, e := range log.Reads {
				if e.Lane == lane && log.Conflicts(lane, e.Addr, false)&survivors != 0 {
					conflict = true
					break
				}
			}
		}
		if conflict {
			losers = losers.Set(lane)
		} else {
			survivors = survivors.Set(lane)
		}
	}
	return losers
}

// execTxCommit finishes the warp's transaction: commit-time intra-warp
// resolution for lazy protocols, the protocol commit, and retry of aborted
// lanes with probabilistically increasing backoff. The commit runs through
// the warp's prebound callbacks (txCommit, txCommitDone, txRetry), with its
// state in warp fields.
func (c *Core) execTxCommit(w *Warp) {
	live := w.live()

	extra := sim.Cycle(0)
	if !c.protocol.EagerIntraWarp() && live.Count() > 1 {
		losers := resolveIntraWarp(w.txLog, live)
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if losers.Bit(lane) {
				c.abortLane(w, lane, tm.CauseIntraWarp)
			}
		}
		extra = sim.Cycle(c.cfg.IntraWarpCyclesPerEntry * (len(w.txLog.Reads) + len(w.txLog.Writes)))
		live = w.live()
	}

	w.commitMask, w.abortMask = live, w.deadMask
	w.state = wBlocked
	w.committing = true
	c.eng.Schedule(extra, w.commitFn)
}

// txCommit hands the attempt to the protocol once intra-warp resolution has
// been charged.
func (c *Core) txCommit(w *Warp) {
	w.commitStart = c.eng.Now()
	if w.commitStart > w.attemptStart {
		c.Stats.TxExecCycles += uint64(w.commitStart - w.attemptStart)
	}
	c.protocol.Commit(&w.warpTx, w.commitMask, w.abortMask, w.resumeFn)
}

// txCommitDone applies the protocol's commit outcome: failed lanes abort and,
// with the lanes that died during the attempt, retry after a backoff; a
// fully committed warp leaves the transaction.
func (c *Core) txCommitDone(w *Warp, out tm.CommitOutcome) {
	c.Stats.TxWaitCycles += uint64(c.eng.Now() - w.commitStart)
	failed := out.FailedLanes & w.commitMask
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if failed.Bit(lane) {
			c.Stats.Aborts++
			c.Stats.AbortsByCause.Inc(out.Cause.String(), 1)
			if c.rec != nil {
				c.rec.Emit(trace.SrcTx, trace.KTxAbort, int32(c.ID),
					uint64(w.gwid), uint64(lane), uint64(out.Cause), 0)
			}
		}
	}
	committed := w.commitMask &^ failed
	c.Stats.Commits += uint64(committed.Count())
	if c.rec != nil {
		c.rec.Emit(trace.SrcTx, trace.KTxCommit, int32(c.ID),
			uint64(w.gwid), uint64(committed), uint64(failed), 0)
	}

	retry := w.abortMask | failed
	if retry != 0 {
		w.attempts++
		backoff := c.backoff(w.attempts)
		c.Stats.TxWaitCycles += uint64(backoff)
		if c.rec != nil {
			c.rec.Emit(trace.SrcTx, trace.KTxRetry, int32(c.ID),
				uint64(w.gwid), uint64(retry), uint64(backoff), 0)
		}
		w.retryMask = retry
		c.eng.Schedule(backoff, w.retryFn)
		return
	}
	c.endTx(w)
	w.top().pc = w.commitPC + 1
	c.wake(w)
}

// txRetry starts the next attempt for the lanes that aborted.
func (c *Core) txRetry(w *Warp) {
	w.txMask = w.retryMask
	w.deadMask = 0
	w.committing = false
	c.beginAttempt(w)
	if c.rec != nil {
		c.rec.Emit(trace.SrcSIMT, trace.KReconverge, int32(c.ID),
			uint64(w.gwid), uint64(w.retryMask), 0, 0)
	}
	w.top().pc = w.txBeginPC + 1
	c.wake(w)
}

// backoff returns a random delay in [0, min(base<<attempts, cap)).
func (c *Core) backoff(attempts int) sim.Cycle {
	limit := c.cfg.BackoffBase
	for i := 1; i < attempts && limit < c.cfg.BackoffCap; i++ {
		limit <<= 1
	}
	if limit > c.cfg.BackoffCap {
		limit = c.cfg.BackoffCap
	}
	if limit == 0 {
		return 0
	}
	return sim.Cycle(c.rng.Uint64n(limit))
}

// endTx releases the warp's transactional slot (and its log) and admits a
// queued warp. No protocol keeps WarpTx.Log past the commit's resume, so the
// log can go straight to the next transaction.
func (c *Core) endTx(w *Warp) {
	w.inTx = false
	w.committing = false
	c.logPool = append(c.logPool, w.txLog)
	w.txLog = nil
	c.txActive--
	for len(c.txQueue) > 0 && c.canBegin() {
		next := c.txQueue[0]
		c.txQueue = c.txQueue[1:]
		c.Stats.TxWaitCycles += uint64(c.eng.Now() - next.waitStart)
		c.startTx(next)
	}
	c.scheduleIssue()
}
