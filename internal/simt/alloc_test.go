package simt

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/sim"
	"getm/internal/tm"
)

// quietProto is a scripted protocol that itself allocates nothing in steady
// state, so the core's allocation gate measures the core alone: accesses and
// commits complete one cycle later through callbacks built once, and while
// abortLoad is set the next load aborts lane 0.
type quietProto struct {
	eng       *sim.Engine
	eager     bool
	abortLoad bool
	results   []tm.AccessResult
	done      func([]tm.AccessResult)
	resume    func(tm.CommitOutcome)
	accFn     func()
	commitFn  func()
	begins    int
	commits   int
}

func newQuietProto(eng *sim.Engine) *quietProto {
	q := &quietProto{eng: eng, results: make([]tm.AccessResult, 0, isa.WarpWidth)}
	q.accFn = func() {
		done := q.done
		q.done = nil
		done(q.results)
	}
	q.commitFn = func() {
		resume := q.resume
		q.resume = nil
		q.commits++
		resume(tm.CommitOutcome{})
	}
	return q
}

func (q *quietProto) Name() string         { return "quiet" }
func (q *quietProto) EagerIntraWarp() bool { return q.eager }
func (q *quietProto) Begin(*tm.WarpTx)     { q.begins++ }

func (q *quietProto) Access(w *tm.WarpTx, isWrite bool, lanes []tm.LaneAccess, done func([]tm.AccessResult)) {
	q.results = q.results[:0]
	for _, la := range lanes {
		r := tm.AccessResult{Lane: la.Lane}
		if !isWrite && q.abortLoad && la.Lane == 0 {
			r.Abort, r.Cause = true, tm.CauseWAR
			q.abortLoad = false
		}
		q.results = append(q.results, r)
	}
	q.done = done
	q.eng.Schedule(1, q.accFn)
}

func (q *quietProto) Commit(w *tm.WarpTx, commitMask, abortMask isa.LaneMask, resume func(tm.CommitOutcome)) {
	q.resume = resume
	q.eng.Schedule(1, q.commitFn)
}

// Gate: a steady-state transaction on the SIMT core — begin, a transactional
// load and store, the commit (with lazy commit-time intra-warp resolution),
// an access-time abort of one lane, the backoff and the retry attempt — runs
// without touching the allocator. The issue event, the compute, commit,
// resume and retry continuations are bound once per core or warp, the
// WarpTx is reused across attempts, and the TxLog comes from the core's free
// list.
func TestCoreTxStepAllocs(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x1000 + 8*i)
	}
	prog := isa.NewBuilder().
		TxBegin().
		Load(1, addrs).
		Compute(3).
		AddImmScalar(1, 1, 1).
		Store(1, addrs).
		TxCommit().
		MustBuild()

	h := newCoreHarness(nil, func(c *Config) { c.WarpsPerCore = 1 })
	q := newQuietProto(h.eng)
	h.core.protocol = q
	w := h.core.newWarpFor(0)

	step := func() {
		q.abortLoad = true
		w.assign(prog)
		h.core.scheduleIssue()
		h.eng.Run(0)
	}
	step() // warm the pools and the log's table and slices
	if w.state != wDone || h.core.Stats.Commits != isa.WarpWidth || h.core.Stats.Aborts != 1 || q.begins != 2 {
		t.Fatalf("warm-up: state %d, %d commits, %d aborts, %d attempts; want done, %d, 1, 2",
			w.state, h.core.Stats.Commits, h.core.Stats.Aborts, q.begins, isa.WarpWidth)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("core begin+access+commit+abort+retry allocates %.1f per transaction, want 0", allocs)
	}
	if q.begins != 2*102 || q.commits != 2*102 {
		t.Fatalf("%d attempts and %d commits over 102 transactions, want 2 each per transaction", q.begins, q.commits)
	}
}

// peakProto is fakeProto plus a record of the core's peak number of
// concurrent transactions (Begin runs inside startTx, after the slot count
// went up, and on every retry).
type peakProto struct {
	*fakeProto
	core *Core
	peak int
}

func (p *peakProto) Begin(w *tm.WarpTx) {
	p.peak = max(p.peak, p.core.txActive)
	p.fakeProto.Begin(w)
}

// TestTxLogsPerSlot pins that transaction logs belong to transaction slots:
// a core creates at most as many TxLogs as it ever runs concurrent
// transactions (at most MaxTxWarps), however many warps and transactions
// pass through it. Logs are never dropped, so once every transaction has
// ended the free list holds every log the core made.
func TestTxLogsPerSlot(t *testing.T) {
	for _, k := range []int{1, 3, 0} {
		var progs []*isa.Program
		for i := 0; i < 24; i++ {
			addrs := make([]uint64, isa.WarpWidth)
			for l := range addrs {
				addrs[l] = uint64(0x8000 + 0x400*(i%5) + 8*l)
			}
			progs = append(progs, isa.NewBuilder().
				TxBegin().
				Load(1, addrs).
				AddImmScalar(1, 1, 1).
				Store(1, addrs).
				TxCommit().
				MustBuild())
		}
		h := newCoreHarness(progs, func(c *Config) {
			c.WarpsPerCore = 8
			c.MaxTxWarps = k
		})
		pp := &peakProto{fakeProto: h.proto, core: h.core}
		h.core.protocol = pp
		h.proto.abortOn[0x8000] = 5
		h.run(t)
		if h.core.Stats.Commits != 24*isa.WarpWidth {
			t.Fatalf("MaxTxWarps=%d: %d commits, want %d", k, h.core.Stats.Commits, 24*isa.WarpWidth)
		}
		if made := len(h.core.logPool); made == 0 || made > pp.peak {
			t.Errorf("MaxTxWarps=%d: core made %d TxLogs, peak concurrency %d", k, made, pp.peak)
		}
		if k > 0 && pp.peak > k {
			t.Errorf("MaxTxWarps=%d: peak concurrency %d", k, pp.peak)
		}
		for _, w := range h.core.warps {
			if w != nil && w.txLog != nil {
				t.Errorf("MaxTxWarps=%d: warp %d kept its TxLog after its last transaction", k, w.slot)
			}
		}
	}
}

// quietMem is a memory that itself allocates nothing in steady state, so the
// lock-step and store-load gates measure the core alone: each access and CAS
// completes delay cycles (1 unless a test sets it) after the first one
// queued since the last completion, in issue order, through one prebuilt
// flush event. maxPending is the most operations ever in flight at once.
type quietMem struct {
	eng         *sim.Engine
	delay       sim.Cycle
	words       map[uint64]uint64
	pending     []quietOp
	spare       []quietOp
	loadVals    []uint64
	flushFn     func()
	flushQueued bool
	maxPending  int
}

type quietOp struct {
	isCAS       bool
	isWrite     bool
	addr, swap  uint64
	addrs, vals []uint64
	done        func([]uint64)
	casDone     func(old uint64, ok bool)
}

func newQuietMem(eng *sim.Engine) *quietMem {
	q := &quietMem{eng: eng, delay: 1, words: map[uint64]uint64{}}
	q.flushFn = func() {
		ops := q.pending
		q.pending, q.flushQueued = q.spare[:0], false
		for i := range ops {
			op := &ops[i]
			switch {
			case op.isCAS:
				old := q.words[op.addr]
				if old == 0 {
					q.words[op.addr] = op.swap
				}
				op.casDone(old, old == 0)
			case op.isWrite:
				for j, a := range op.addrs {
					q.words[a] = op.vals[j]
				}
				op.done(nil)
			default:
				q.loadVals = q.loadVals[:0]
				for _, a := range op.addrs {
					q.loadVals = append(q.loadVals, q.words[a])
				}
				op.done(q.loadVals)
			}
			*op = quietOp{}
		}
		q.spare = ops[:0]
	}
	return q
}

func (q *quietMem) queue(op quietOp) {
	q.pending = append(q.pending, op)
	q.maxPending = max(q.maxPending, len(q.pending))
	if !q.flushQueued {
		q.flushQueued = true
		q.eng.Schedule(q.delay, q.flushFn)
	}
}

func (q *quietMem) Access(core int, isWrite bool, addrs, vals []uint64, done func([]uint64)) {
	q.queue(quietOp{isWrite: isWrite, addrs: addrs, vals: vals, done: done})
}

func (q *quietMem) AtomicCAS(core int, addr, compare, swap uint64, done func(old uint64, ok bool)) {
	if compare != 0 {
		panic("quietMem: lock CASes compare against 0")
	}
	q.queue(quietOp{isCAS: true, addr: addr, swap: swap, casDone: done})
}

func (q *quietMem) AtomicAdd(core int, addr, delta uint64, done func(old uint64)) {
	panic("quietMem: no atomic adds in the lock-step gate")
}

// Gate: a steady-state fine-grained-lock critical section on the SIMT core —
// two-level CAS acquisition, a lost race (two lanes share a lock), the
// losers' release, the body's load and store under the lane mask, the fence,
// the release stores and the retry round — runs without touching the
// allocator. The loop's state lives in the warp's csState and every
// continuation is bound once per warp.
func TestCoreLockStepAllocs(t *testing.T) {
	locks := make([][]uint64, isa.WarpWidth)
	data := make([]uint64, isa.WarpWidth)
	for l := range locks {
		// Lanes 0 and 1 share their second lock, so one of them loses the
		// first round and retries.
		second := uint64(0x9000 + 8*l)
		if l == 1 {
			second = 0x9000
		}
		locks[l] = []uint64{uint64(0x8000 + 8*l), second}
		data[l] = uint64(0x10000 + 8*l)
	}
	body := isa.NewBuilder().
		Load(1, data).
		AddImmScalar(1, 1, 1).
		Store(1, data).
		Ops()
	prog := isa.NewBuilder().CritSection(locks, body).MustBuild()

	h := newCoreHarness(nil, func(c *Config) { c.WarpsPerCore = 1 })
	q := newQuietMem(h.eng)
	h.core.memsys = q
	w := h.core.newWarpFor(0)

	step := func() {
		w.assign(prog)
		h.core.scheduleIssue()
		h.eng.Run(0)
	}
	step() // warm the callbacks, scratch slices, maps and engine slab
	if w.state != wDone || w.cs.op != nil {
		t.Fatalf("warm-up: warp state %d, in a critical section %v; want done, not", w.state, w.cs.op != nil)
	}
	for l := range data {
		if q.words[data[l]] != 1 || q.words[locks[l][0]] != 0 || q.words[locks[l][1]] != 0 {
			t.Fatalf("warm-up lane %d: data %d, locks %d/%d; want 1, 0/0",
				l, q.words[data[l]], q.words[locks[l][0]], q.words[locks[l][1]])
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("critical section (acquire, lost race, body, fence, release, retry) allocates %.1f per section, want 0", allocs)
	}
	if got := q.words[data[0]]; got != 102 {
		t.Fatalf("lane 0 ran its body %d times over 102 sections, want 102", got)
	}
}

// Gate: a non-transactional store and a load of the same word on one warp —
// the store leaves fire-and-forget, the load finds the word on the store
// scoreboard and fences, the store lands (the scoreboard empties), and the
// load re-issues and reads the stored value — runs without touching the
// allocator once the warp's scoreboard and fence list have grown.
func TestCoreStoreLoadStepAllocs(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x4000 + 8*i)
	}
	prog := isa.NewBuilder().
		AddImmScalar(1, 1, 1).
		Store(1, addrs).
		Load(2, addrs).
		MustBuild()

	h := newCoreHarness(nil, func(c *Config) { c.WarpsPerCore = 1 })
	q := newQuietMem(h.eng)
	q.delay = 4 // the load issues while the store is in flight
	h.core.memsys = q
	w := h.core.newWarpFor(0)

	step := func() {
		w.assign(prog)
		h.core.scheduleIssue()
		h.eng.Run(0)
	}
	step() // warm the scoreboard, the fence list and the store buffers
	if w.state != wDone || w.regs[5][2] != 1 || q.words[addrs[5]] != 1 {
		t.Fatalf("warm-up: state %d, lane 5 loaded %d, memory holds %d; want done, 1, 1",
			w.state, w.regs[5][2], q.words[addrs[5]])
	}
	if q.maxPending != 1 {
		t.Fatalf("%d accesses in flight at once: the load did not wait for the store", q.maxPending)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("store, scoreboarded load, fence and re-issue allocate %.1f per step, want 0", allocs)
	}
}
