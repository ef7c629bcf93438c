package simt

import (
	"getm/internal/isa"
	"getm/internal/sim"
	"getm/internal/tm"
)

type warpState uint8

const (
	// wIdle: no program assigned yet (or finished, awaiting dispatch).
	wIdle warpState = iota
	// wReady: can issue an instruction this cycle.
	wReady
	// wBlocked: waiting on memory, a tx slot, a commit, backoff, or a
	// critical-section phase.
	wBlocked
	// wDone: no more work will be dispatched.
	wDone
)

// frame is one level of the execution stack: the main program, or a
// critical-section body with a holder mask.
type frame struct {
	ops  []isa.Op
	pc   int
	mask isa.LaneMask
}

// Warp is one hardware warp's execution state, including the transactional
// SIMT-stack extension: txMask tracks the lanes of the current attempt and
// deadMask the lanes that aborted and wait (as the Retry stack entry) to be
// re-executed when the warp reaches the commit point.
//
// A warp outlives its machine (DESIGN §6): Core.Recycle stocks it whole, with
// its register file, store scoreboard, scratch slices and prebound callbacks,
// and the next core to need a warp takes it. Every callback reaches the core
// through c, which is set when the warp is taken and cleared when it is
// stocked, together with everything else that points into the finished
// machine or its kernel.
type Warp struct {
	c    *Core
	slot int // core-local index
	gwid int

	frames []frame
	state  warpState // set through setState only: the core's ready mask follows it

	regs regFile

	// Transaction state. txLog belongs to the transaction slot, not the
	// warp: it is taken from the core's free list in startTx and returned in
	// endTx (nil outside a transaction). warpTx is reused across attempts;
	// attemptID numbers them, so a completion from an ended attempt is stale.
	// attempts counts the retries of the current transaction (backoff).
	inTx          bool
	committing    bool
	txBeginPC     int
	commitPC      int
	txMask        isa.LaneMask
	pendingTxMask isa.LaneMask
	deadMask      isa.LaneMask
	txLog         *tm.TxLog
	warpTx        tm.WarpTx
	attemptID     uint64
	attempts      int

	// Timing accounting.
	attemptStart sim.Cycle
	waitStart    sim.Cycle

	// cs is the critical-section state machine (fine-grained-lock kernels).
	cs csState

	// Non-blocking store tracking: GPUs fire-and-forget global stores, so
	// the warp continues after issuing one. storeWords counts the stores in
	// flight per word (a later load of a word with a count above 0 must
	// wait); it is emptied in O(1) whenever the store queue drains, so it
	// holds at most the words of the stores since the last drain, and it
	// travels with the warp. Fence callbacks run once every outstanding
	// store has reached memory (used before releasing locks and at program
	// end).
	pendingStores int
	storeWords    sim.Table[int32]
	fenceFns      []func()

	// Per-warp access scratch, reused across instructions. Safe because a
	// warp has at most one transactional access or blocking load in flight
	// and stays blocked until its completion callback runs (fire-and-forget
	// stores use pooled core buffers instead). Never shared across warps or
	// goroutines (DESIGN.md §6).
	sendBuf   []tm.LaneAccess     // lanes going to the protocol this instruction
	sendIdx   [isa.WarpWidth]int8 // lane -> index into sendBuf
	loadLanes []int               // blocking-load scratch
	loadAddrs []uint64

	// In-flight access state consumed by the prebound completion callbacks
	// (accDone for transactional accesses, loadDone for blocking loads); the
	// closures themselves are allocated once per warp in newWarp.
	accIsWrite bool
	accDst     isa.Reg
	accAttempt uint64
	accDone    func([]tm.AccessResult)
	loadDst    isa.Reg
	loadDone   func([]uint64)

	// Commit state consumed by the prebound commit callbacks: commitFn starts
	// the protocol commit after intra-warp resolution, resumeFn takes its
	// outcome, and retryFn restarts the failed lanes after the backoff.
	commitMask  isa.LaneMask
	abortMask   isa.LaneMask
	retryMask   isa.LaneMask
	commitStart sim.Cycle
	commitFn    func()
	resumeFn    func(tm.CommitOutcome)
	retryFn     func()
	// wakeFn is the prebound c.wake(w) (compute latency, store fences).
	wakeFn func()

	next *Warp // the stocked chain (warpStock)
}

// regFile is one warp's registers, 2 KB of its context.
type regFile [isa.WarpWidth][isa.NumRegs]uint64

// newWarp builds a warp context with its prebound completion and commit
// callbacks (allocated once per warp, here).
func newWarp() *Warp {
	w := &Warp{
		sendBuf:   make([]tm.LaneAccess, 0, isa.WarpWidth),
		loadLanes: make([]int, 0, isa.WarpWidth),
		loadAddrs: make([]uint64, 0, isa.WarpWidth),
	}
	w.accDone = func(results []tm.AccessResult) { w.c.txAccessDone(w, results) }
	w.loadDone = func(loadVals []uint64) {
		for i, lane := range w.loadLanes {
			w.regs[lane][w.loadDst] = loadVals[i]
		}
		w.c.wake(w)
	}
	w.wakeFn = func() { w.c.wake(w) }
	w.commitFn = func() { w.c.txCommit(w) }
	w.resumeFn = func(out tm.CommitOutcome) { w.c.txCommitDone(w, out) }
	w.retryFn = func() { w.c.txRetry(w) }
	return w
}

// drop prepares the warp to be stocked: it lets go of its core, its kernel's
// programs and whatever a cut-short run left in flight. assign resets the
// rest before the warp runs again.
func (w *Warp) drop() {
	w.c = nil
	clear(w.frames[:cap(w.frames)])
	w.frames = w.frames[:0]
	w.cs.op, w.cs.released, w.cs.held = nil, nil, [isa.WarpWidth]int{}
	w.warpTx = tm.WarpTx{}
	clear(w.fenceFns[:cap(w.fenceFns)])
	w.fenceFns = w.fenceFns[:0]
	w.pendingStores = 0
	w.storeWords.Reset()
}

// setState moves the warp to state s and keeps its core's ready mask, the
// issue stage's view of which slots can issue, in step with it.
func (w *Warp) setState(s warpState) {
	w.state = s
	word, bit := &w.c.ready[w.slot/64], uint64(1)<<(w.slot%64)
	if s == wReady {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// fence runs f once all outstanding stores have completed.
func (w *Warp) fence(f func()) {
	if w.pendingStores == 0 {
		f()
		return
	}
	w.fenceFns = append(w.fenceFns, f)
}

// storeConflict reports whether any address has an outstanding store.
func (w *Warp) storeConflict(addrs []uint64) bool {
	if w.pendingStores == 0 {
		return false
	}
	for _, a := range addrs {
		if n := w.storeWords.Find(a); n != nil && *n > 0 {
			return true
		}
	}
	return false
}

// top returns the current frame.
func (w *Warp) top() *frame { return &w.frames[len(w.frames)-1] }

// curOp returns the op at the current pc, or nil at frame end.
func (w *Warp) curOp() *isa.Op {
	f := w.top()
	if f.pc >= len(f.ops) {
		return nil
	}
	return &f.ops[f.pc]
}

// live returns the lanes of the current attempt still executing.
func (w *Warp) live() isa.LaneMask { return w.txMask &^ w.deadMask }

// effMask resolves an op's lane set in the current context.
func (w *Warp) effMask(op *isa.Op) isa.LaneMask {
	base := w.top().mask
	if w.inTx && len(w.frames) == 1 {
		base &= w.live()
	}
	return op.EffMask(base)
}

// assign loads a new program into the warp. The caller guarantees the store
// queue is drained (frameDone fences before redispatch).
func (w *Warp) assign(p *isa.Program) {
	w.frames = w.frames[:0]
	w.frames = append(w.frames, frame{ops: p.Ops, mask: isa.FullMask})
	w.setState(wReady)
	w.inTx = false
	w.deadMask = 0
	w.txMask = 0
	w.cs.op = nil
	w.regs = regFile{} // storeWords is empty: frameDone drains stores before redispatch
}

// storeValue resolves the data a lane's store writes.
func (w *Warp) storeValue(op *isa.Op, lane int) uint64 {
	if op.UseImm {
		return uint64(op.LaneImm(lane))
	}
	return w.regs[lane][op.Src]
}

// csState drives the warp-level critical-section loop: acquire the per-lane
// lock lists in ascending order via CAS, run the body for the lanes that
// hold all their locks, release, and repeat for the remainder (the Fig 1
// loop-on-flag idiom). The loop's state lives here and its callbacks are
// bound once per warp (bindCS), so a critical section allocates nothing.
type csState struct {
	op        *isa.Op // nil outside a critical section
	remaining isa.LaneMask
	// held[lane] counts locks currently held during an acquire round.
	held [isa.WarpWidth]int

	// The acquire level in flight: the lanes already holding every lock,
	// the CAS outcomes so far and the CASes still outstanding.
	level       int
	holders     isa.LaneMask
	winners     isa.LaneMask
	losers      isa.LaneMask
	outstanding int
	// body is the holder set running the body, whose locks it releases.
	body isa.LaneMask
	// released continues the loop once a release's stores complete; addrs
	// and vals are their operands, valid until then.
	released    func()
	addrs, vals []uint64

	casDone     [isa.WarpWidth]func(old uint64, ok bool) // lane's CAS outcome
	nextLevelFn func()                                   // the winners acquire the next level
	roundFn     func()                                   // a new round for the remaining lanes
	bodyDoneFn  func()                                   // the body's stores are visible: release
	finishFn    func()                                   // the body's locks are free
	storesFn    func([]uint64)                           // a release's stores completed
}

// bindCS builds the warp's critical-section callbacks, on its first
// critical section.
func (w *Warp) bindCS() {
	cs := &w.cs
	for lane := range cs.casDone {
		cs.casDone[lane] = func(_ uint64, ok bool) { w.c.csCASDone(w, lane, ok) }
	}
	cs.nextLevelFn = func() { w.c.csAcquireLevel(w, cs.winners, cs.level+1, cs.holders) }
	cs.roundFn = func() { w.c.csRound(w) }
	cs.bodyDoneFn = func() { w.c.csReleaseLocks(w, cs.body, cs.finishFn) }
	cs.finishFn = func() { w.c.csFinish(w) }
	cs.storesFn = func([]uint64) { cs.released() }
}
