package simt

import (
	"sync"

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
	ops    []isa.Op
	pc     int
	mask   isa.LaneMask
	onDone func(w *Warp)
}

// Warp is one hardware warp's execution state, including the transactional
// SIMT-stack extension: txMask tracks the lanes of the current attempt and
// deadMask the lanes that aborted and wait (as the Retry stack entry) to be
// re-executed when the warp reaches the commit point.
type Warp struct {
	slot int // core-local index
	gwid int

	frames []frame
	state  warpState

	regs *regFile

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

	// cs is the in-progress critical-section state machine, if any.
	cs *csState

	// Non-blocking store tracking: GPUs fire-and-forget global stores, so
	// the warp continues after issuing one. storeWords scoreboards the
	// written words (a later load of one must wait), and fence callbacks run
	// once every outstanding store has reached memory (used before releasing
	// locks and at program end).
	pendingStores int
	storeWords    map[uint64]int
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
	// closures themselves are allocated once per warp in newWarpFor.
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
}

// regFile is one warp's registers, 2 KB of its context.
type regFile [isa.WarpWidth][isa.NumRegs]uint64

// regFiles holds the register files of recycled cores (Core.Recycle) for
// the next warps built in this process, on any goroutine.
var regFiles sync.Pool

// newRegFile returns a register file, recycled when one is pooled; assign
// zeroes it before the warp runs a program.
func newRegFile() *regFile {
	if r, ok := regFiles.Get().(*regFile); ok {
		return r
	}
	return new(regFile)
}

func newWarp(slot, gwid int) *Warp {
	return &Warp{
		slot: slot, gwid: gwid,
		regs:       newRegFile(),
		storeWords: make(map[uint64]int),
		sendBuf:    make([]tm.LaneAccess, 0, isa.WarpWidth),
		loadLanes:  make([]int, 0, isa.WarpWidth),
		loadAddrs:  make([]uint64, 0, isa.WarpWidth),
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
	if len(w.storeWords) == 0 {
		return false
	}
	for _, a := range addrs {
		if w.storeWords[a] > 0 {
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
	w.state = wReady
	w.inTx = false
	w.deadMask = 0
	w.txMask = 0
	w.cs = nil
	clear(w.storeWords) // safe: frameDone drains stores before redispatch
	*w.regs = regFile{}
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
// loop-on-flag idiom).
type csState struct {
	op        *isa.Op
	remaining isa.LaneMask
	// held[lane] counts locks currently held during an acquire round.
	held [isa.WarpWidth]int
}
