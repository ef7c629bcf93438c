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
	step() // warm the pools, the log's tables and the abort-cause counter
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
