package simt

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/sim"
	"getm/internal/tm"
)

// fakeMem is an instant, engine-scheduled memory (1-cycle latency).
type fakeMem struct {
	eng   *sim.Engine
	words map[uint64]uint64
	// atomicsServed counts CAS/Exch operations.
	atomicsServed int
}

func newFakeMem(eng *sim.Engine) *fakeMem {
	return &fakeMem{eng: eng, words: map[uint64]uint64{}}
}

func (f *fakeMem) Access(core int, isWrite bool, addrs, vals []uint64, done func([]uint64)) {
	f.eng.Schedule(1, func() {
		out := make([]uint64, len(addrs))
		for i, a := range addrs {
			if isWrite {
				f.words[a] = vals[i]
			} else {
				out[i] = f.words[a]
			}
		}
		done(out)
	})
}

func (f *fakeMem) AtomicCAS(core int, addr, cmp, swap uint64, done func(uint64, bool)) {
	f.atomicsServed++
	f.eng.Schedule(1, func() {
		old := f.words[addr]
		ok := old == cmp
		if ok {
			f.words[addr] = swap
		}
		done(old, ok)
	})
}

func (f *fakeMem) AtomicExch(core int, addr, val uint64, done func(uint64)) {
	f.atomicsServed++
	f.eng.Schedule(1, func() {
		old := f.words[addr]
		f.words[addr] = val
		done(old)
	})
}

func (f *fakeMem) AtomicAdd(core int, addr, delta uint64, done func(uint64)) {
	f.atomicsServed++
	f.eng.Schedule(1, func() {
		old := f.words[addr]
		f.words[addr] = old + delta
		done(old)
	})
}

// fakeProto is a scriptable protocol: abortOn[addr] makes accesses to that
// address abort once; commits apply writes to the fake memory instantly.
type fakeProto struct {
	eng     *sim.Engine
	mem     *fakeMem
	eager   bool
	abortOn map[uint64]int // addr -> remaining aborts
	begins  int
	commits int
}

func (f *fakeProto) Name() string         { return "fake" }
func (f *fakeProto) EagerIntraWarp() bool { return f.eager }
func (f *fakeProto) Begin(*tm.WarpTx)     { f.begins++ }

func (f *fakeProto) Access(w *tm.WarpTx, isWrite bool, lanes []tm.LaneAccess, done func([]tm.AccessResult)) {
	f.eng.Schedule(1, func() {
		out := make([]tm.AccessResult, len(lanes))
		for i, la := range lanes {
			out[i] = tm.AccessResult{Lane: la.Lane, Value: f.mem.words[la.Addr]}
			if n, ok := f.abortOn[la.Addr]; ok && n > 0 {
				f.abortOn[la.Addr] = n - 1
				out[i].Abort = true
				out[i].Cause = tm.CauseWAR
			}
		}
		done(out)
	})
}

func (f *fakeProto) Commit(w *tm.WarpTx, commitMask, abortMask isa.LaneMask, resume func(tm.CommitOutcome)) {
	f.eng.Schedule(1, func() {
		for _, e := range w.Log.Writes {
			if commitMask.Bit(e.Lane) {
				f.mem.words[e.Addr] = e.Value
			}
		}
		f.commits++
		resume(tm.CommitOutcome{})
	})
}

type coreHarness struct {
	eng   *sim.Engine
	mem   *fakeMem
	proto *fakeProto
	core  *Core
}

func newCoreHarness(progs []*isa.Program, cfgEdit func(*Config)) *coreHarness {
	eng := sim.NewEngine()
	fm := newFakeMem(eng)
	fp := &fakeProto{eng: eng, mem: fm, eager: true, abortOn: map[uint64]int{}}
	cfg := DefaultConfig()
	cfg.WarpsPerCore = 4
	cfg.BackoffBase = 4
	cfg.BackoffCap = 16
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	i := 0
	dispatch := func() *isa.Program {
		if i >= len(progs) {
			return nil
		}
		p := progs[i]
		i++
		return p
	}
	h := &coreHarness{eng: eng, mem: fm, proto: fp}
	h.core = NewCore(0, eng, cfg, fp, fm, sim.NewRNG(1), dispatch)
	return h
}

func (h *coreHarness) run(t *testing.T) {
	t.Helper()
	h.core.Start()
	h.eng.Run(5_000_000)
	if !h.core.AllDone() {
		t.Fatalf("core did not finish: %v", h.core.StuckWarps())
	}
}

func TestRegisterAndComputeOps(t *testing.T) {
	addr := isa.UniformAddr(0x100)
	p := isa.NewBuilder().
		MovImm(1, isa.UniformImm(5)).
		AddImmScalar(2, 1, 3).
		Compute(10).
		Store(2, addr).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0x100] != 8 {
		t.Fatalf("mem = %d, want 8", h.mem.words[0x100])
	}
}

func TestNonTxLoadStoreRoundTrip(t *testing.T) {
	a1, a2 := isa.UniformAddr(0x200), isa.UniformAddr(0x300)
	p := isa.NewBuilder().
		Load(1, a1).
		AddImmScalar(1, 1, 1).
		Store(1, a2).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.mem.words[0x200] = 41
	h.run(t)
	if h.mem.words[0x300] != 42 {
		t.Fatalf("mem = %d", h.mem.words[0x300])
	}
}

func TestPerLaneOperands(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	imms := make([]int64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x1000 + 8*i)
		imms[i] = int64(i)
	}
	p := isa.NewBuilder().StoreImm(imms, addrs).MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	for i := range addrs {
		if h.mem.words[addrs[i]] != uint64(i) {
			t.Fatalf("lane %d wrote %d", i, h.mem.words[addrs[i]])
		}
	}
}

func TestTxCommitAppliesWrites(t *testing.T) {
	addr := isa.UniformAddr(0x400)
	p := isa.NewBuilder().
		TxBegin().
		Load(1, addr).
		AddImmScalar(1, 1, 1).
		Store(1, addr).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	// 32 lanes all read 0 and wrote 1 (same addr -> intra-warp conflicts
	// make lanes retry; final value must reflect 32 serialized increments).
	if h.mem.words[0x400] != 32 {
		t.Fatalf("mem = %d, want 32 (intra-warp serialization)", h.mem.words[0x400])
	}
	if h.core.Stats.Commits != 32 {
		t.Fatalf("commits = %d", h.core.Stats.Commits)
	}
	if h.core.Stats.AbortsByCause["intra-warp"] == 0 {
		t.Fatal("expected intra-warp aborts")
	}
}

func TestTxAbortRetries(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x2000 + 8*i)
	}
	p := isa.NewBuilder().
		TxBegin().
		Load(1, addrs).
		AddImmScalar(1, 1, 7).
		Store(1, addrs).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.proto.abortOn[0x2000] = 2 // lane 0 aborts twice, then succeeds
	h.run(t)
	if h.core.Stats.Aborts != 2 {
		t.Fatalf("aborts = %d, want 2", h.core.Stats.Aborts)
	}
	if h.core.Stats.Commits != 32 {
		t.Fatalf("commits = %d, want 32", h.core.Stats.Commits)
	}
	if h.mem.words[0x2000] != 7 {
		t.Fatalf("lane 0 value = %d", h.mem.words[0x2000])
	}
	// Three protocol attempts for the warp: initial + 2 retries.
	if h.proto.begins != 3 {
		t.Fatalf("begins = %d, want 3", h.proto.begins)
	}
	if h.core.Stats.TxWaitCycles == 0 {
		t.Fatal("retries should accrue backoff wait cycles")
	}
}

func TestConcurrencyThrottleQueues(t *testing.T) {
	addr := func(base int) []uint64 {
		a := make([]uint64, isa.WarpWidth)
		for i := range a {
			a[i] = uint64(base + 8*i)
		}
		return a
	}
	mk := func(base int) *isa.Program {
		return isa.NewBuilder().
			TxBegin().
			Load(1, addr(base)).
			Store(1, addr(base)).
			TxCommit().
			MustBuild()
	}
	progs := []*isa.Program{mk(0x1000), mk(0x3000), mk(0x5000)}
	h := newCoreHarness(progs, func(c *Config) { c.MaxTxWarps = 1 })
	h.run(t)
	if h.core.Stats.Commits != 96 {
		t.Fatalf("commits = %d", h.core.Stats.Commits)
	}
	if h.core.Stats.TxWaitCycles == 0 {
		t.Fatal("throttle should force tx slot waiting")
	}
}

func TestCritSectionMutualExclusion(t *testing.T) {
	// All 32 lanes increment one shared counter under the same lock: the
	// result must be exactly 32.
	shared := isa.UniformAddr(0x800)
	locks := make([][]uint64, isa.WarpWidth)
	for i := range locks {
		locks[i] = []uint64{0x900}
	}
	body := isa.NewBuilder().
		Load(1, shared).
		AddImmScalar(1, 1, 1).
		Store(1, shared).
		Ops()
	p := isa.NewBuilder().CritSection(locks, body).MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0x800] != 32 {
		t.Fatalf("counter = %d, want 32", h.mem.words[0x800])
	}
	if h.mem.words[0x900] != 0 {
		t.Fatal("lock not released")
	}
}

func TestCritSectionTwoLockOrdering(t *testing.T) {
	// Lanes transfer between pairs of cells with two locks each; totals are
	// conserved and no deadlock occurs despite overlapping pairs.
	src := make([]uint64, isa.WarpWidth)
	dst := make([]uint64, isa.WarpWidth)
	locksrc := make([]uint64, isa.WarpWidth)
	lockdst := make([]uint64, isa.WarpWidth)
	locks := make([][]uint64, isa.WarpWidth)
	for i := 0; i < isa.WarpWidth; i++ {
		a := i % 8
		b := (i + 1) % 8
		src[i] = uint64(0xA00 + 8*a)
		dst[i] = uint64(0xA00 + 8*b)
		locksrc[i] = uint64(0xB00 + 8*a)
		lockdst[i] = uint64(0xB00 + 8*b)
		if locksrc[i] < lockdst[i] {
			locks[i] = []uint64{locksrc[i], lockdst[i]}
		} else {
			locks[i] = []uint64{lockdst[i], locksrc[i]}
		}
	}
	body := isa.NewBuilder().
		Load(1, src).
		AddImmScalar(1, 1, -1).
		Store(1, src).
		Load(2, dst).
		AddImmScalar(2, 2, 1).
		Store(2, dst).
		Ops()
	p := isa.NewBuilder().CritSection(locks, body).MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	for c := 0; c < 8; c++ {
		h.mem.words[uint64(0xA00+8*c)] = 100
	}
	h.run(t)
	var total uint64
	for c := 0; c < 8; c++ {
		total += h.mem.words[uint64(0xA00+8*c)]
	}
	if total != 800 {
		t.Fatalf("total = %d, want 800", total)
	}
}

func TestDispatcherFeedsMultiplePrograms(t *testing.T) {
	var progs []*isa.Program
	for i := 0; i < 10; i++ {
		base := 0x4000 + i*0x200
		addrs := make([]uint64, isa.WarpWidth)
		for l := range addrs {
			addrs[l] = uint64(base + 8*l)
		}
		progs = append(progs, isa.NewBuilder().StoreImm(isa.UniformImm(int64(i+1)), addrs).MustBuild())
	}
	h := newCoreHarness(progs, func(c *Config) { c.WarpsPerCore = 2 })
	h.run(t)
	for i := 0; i < 10; i++ {
		if h.mem.words[uint64(0x4000+i*0x200)] != uint64(i+1) {
			t.Fatalf("program %d not executed", i)
		}
	}
}

func TestLazyIntraWarpResolutionAtCommit(t *testing.T) {
	// With a lazy protocol, same-address lanes conflict only at the commit
	// point; winners commit, losers retry.
	addr := isa.UniformAddr(0xC00)
	p := isa.NewBuilder().
		TxBegin().
		Load(1, addr).
		AddImmScalar(1, 1, 1).
		Store(1, addr).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.proto.eager = false
	h.run(t)
	if h.mem.words[0xC00] != 32 {
		t.Fatalf("counter = %d, want 32", h.mem.words[0xC00])
	}
	if h.core.Stats.AbortsByCause["intra-warp"] == 0 {
		t.Fatal("lazy resolution should record intra-warp aborts")
	}
}

func TestMaskedOpsSkipInactiveLanes(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0xD00 + 8*i)
	}
	var mask isa.LaneMask
	for i := 0; i < 8; i++ {
		mask = mask.Set(i)
	}
	p := isa.NewBuilder().
		StoreImmMasked(isa.UniformImm(9), addrs, mask).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	for i := 0; i < isa.WarpWidth; i++ {
		want := uint64(0)
		if i < 8 {
			want = 9
		}
		if h.mem.words[addrs[i]] != want {
			t.Fatalf("lane %d = %d, want %d", i, h.mem.words[addrs[i]], want)
		}
	}
}

func TestGTOPrefersSameWarp(t *testing.T) {
	// Two warps of pure compute: the core should finish both; instruction
	// count equals total ops issued.
	p1 := isa.NewBuilder().Compute(1).Compute(1).Compute(1).MustBuild()
	p2 := isa.NewBuilder().Compute(1).Compute(1).Compute(1).MustBuild()
	h := newCoreHarness([]*isa.Program{p1, p2}, nil)
	h.run(t)
	if h.core.Stats.Instructions != 6 {
		t.Fatalf("instructions = %d, want 6", h.core.Stats.Instructions)
	}
}

func TestAtomicAddOp(t *testing.T) {
	// All 32 lanes atomically add 1 to the same counter; each must observe a
	// distinct old value and the final count must be 32.
	p := isa.NewBuilder().
		AtomicAdd(1, isa.UniformAddr(0xF00), isa.UniformImm(1)).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0xF00] != 32 {
		t.Fatalf("counter = %d, want 32", h.mem.words[0xF00])
	}
	if h.mem.atomicsServed != 32 {
		t.Fatalf("atomics served = %d", h.mem.atomicsServed)
	}
}

func TestAtomicAddMasked(t *testing.T) {
	var mask isa.LaneMask
	for i := 0; i < 5; i++ {
		mask = mask.Set(i)
	}
	p := isa.NewBuilder().
		AtomicAddMasked(1, isa.UniformAddr(0xF40), isa.UniformImm(2), mask).
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	if h.mem.words[0xF40] != 10 {
		t.Fatalf("counter = %d, want 10", h.mem.words[0xF40])
	}
}

func TestReadForwardingAvoidsProtocolAccess(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0xE00 + 8*i)
	}
	p := isa.NewBuilder().
		TxBegin().
		Load(1, addrs).
		Load(2, addrs). // second read: forwarded from the log
		Store(2, addrs).
		Load(3, addrs). // read own write: forwarded
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p}, nil)
	h.run(t)
	// Only two protocol round trips should have happened per lane group
	// (first load + store); forwarded reads are local.
	if h.core.Stats.Commits != 32 {
		t.Fatalf("commits = %d", h.core.Stats.Commits)
	}
}
