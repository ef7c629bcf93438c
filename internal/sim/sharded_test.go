package sim

import (
	"container/heap"
	"testing"
)

// --- differential harness -------------------------------------------------
//
// The sharded engine's correctness claim is behavioral: for a fixed model,
// every domain executes the same events at the same cycles in the same order
// regardless of worker count, quantum, chunking, or stop/resume points. The
// harness drives one deterministic random workload against several backends
// and requires per-domain (execution hash, event count, final clock) to be
// identical everywhere. The reference backend below reimplements the
// canonical semantics naively — one global sorted list, no windows, no
// goroutines — so it is an independent oracle, not a re-run of the
// implementation under test.

// shardBackend abstracts scheduling so one model can drive every executor.
type shardBackend interface {
	schedule(dom int, delay Cycle, fn func())
	send(src, dst int, delay Cycle, fn func())
	now(dom int) Cycle
}

// modelSendMin is the minimum cross-domain delay the model uses. It must be
// at least the largest quantum any test runs with, so the same workload is
// valid under every quantum being compared.
const modelSendMin = 8

// shardModel is a deterministic random workload: seeded root events per
// domain, each event folds (id, now) into its domain's order-sensitive hash
// and spawns a few children — mostly local (delay 0..5, exercising the
// same-cycle spawns), sometimes cross-domain (delay modelSendMin..+7). All
// randomness derives from (seed, event id), never from execution order, so
// every backend generates the identical event tree.
type shardModel struct {
	b       shardBackend
	seed    uint64
	domains int
	cross   bool // enable cross-domain sends
	hash    []uint64
	count   []uint64
	onExec  func() // optional per-event hook (used by stop/resume tests)
}

func newShardModel(b shardBackend, seed uint64, domains int, cross bool) *shardModel {
	return &shardModel{
		b:       b,
		seed:    seed,
		domains: domains,
		cross:   cross,
		hash:    make([]uint64, domains),
		count:   make([]uint64, domains),
	}
}

func (m *shardModel) seedRoots() {
	r := NewRNG(m.seed)
	for dom := 0; dom < m.domains; dom++ {
		roots := 1 + r.Intn(3)
		for i := 0; i < roots; i++ {
			id := Mix64(m.seed ^ uint64(dom)<<32 ^ uint64(i))
			d, depth := dom, 3+r.Intn(2)
			m.b.schedule(d, Cycle(r.Intn(20)), m.eventFn(d, id, depth))
		}
	}
}

func (m *shardModel) eventFn(dom int, id uint64, depth int) func() {
	return func() { m.exec(dom, id, depth) }
}

func (m *shardModel) exec(dom int, id uint64, depth int) {
	now := m.b.now(dom)
	m.hash[dom] = Mix64(m.hash[dom]*0x9E3779B97F4A7C15 ^ Mix64(id) ^ uint64(now))
	m.count[dom]++
	if m.onExec != nil {
		m.onExec()
	}
	if depth <= 0 {
		return
	}
	r := NewRNG(m.seed ^ Mix64(id))
	for i, n := 0, r.Intn(4); i < n; i++ {
		cid := Mix64(id + uint64(i)*0x632BE59BD9B4E019 + 1)
		if m.cross && m.domains > 1 && r.Intn(4) == 0 {
			dst := r.Intn(m.domains)
			m.b.send(dom, dst, modelSendMin+Cycle(r.Intn(8)), m.eventFn(dst, cid, depth-1))
		} else {
			m.b.schedule(dom, Cycle(r.Intn(6)), m.eventFn(dom, cid, depth-1))
		}
	}
}

// fingerprint is the per-domain observable the tests compare.
type fingerprint struct {
	hash  uint64
	count uint64
	now   Cycle
}

func (m *shardModel) fingerprints() []fingerprint {
	fp := make([]fingerprint, m.domains)
	for d := range fp {
		fp[d] = fingerprint{m.hash[d], m.count[d], m.b.now(d)}
	}
	return fp
}

// --- backend: ShardedEngine ----------------------------------------------

type shardedBackend struct{ se *ShardedEngine }

func (sb shardedBackend) schedule(dom int, delay Cycle, fn func()) {
	sb.se.Domain(dom).Schedule(delay, fn)
}
func (sb shardedBackend) send(src, dst int, delay Cycle, fn func()) {
	sb.se.Send(src, dst, delay, fn)
}
func (sb shardedBackend) now(dom int) Cycle { return sb.se.Domain(dom).Now() }

// runSharded executes the model on a ShardedEngine and returns fingerprints.
// drive defaults to run-to-completion.
func runSharded(seed uint64, domains, workers int, quantum Cycle, cross bool,
	drive func(*ShardedEngine, *shardModel)) []fingerprint {
	se := NewSharded(domains, quantum)
	se.SetWorkers(workers)
	defer se.Close()
	m := newShardModel(shardedBackend{se}, seed, domains, cross)
	m.seedRoots()
	if drive == nil {
		se.Run(0)
	} else {
		drive(se, m)
	}
	if se.Pending() != 0 {
		panic("runSharded: events left pending")
	}
	return m.fingerprints()
}

// --- backend: naive reference executor -------------------------------------
//
// refExec implements the canonical sharded semantics directly: one global
// event list ordered by (when, domain, class, keys), where class 0 is local
// events scheduled from an earlier cycle (ordered by a scheduling counter),
// class 1 is cross-domain deliveries (ordered by send cycle, then source
// domain, then per-source send index), and class 2 is same-cycle delay-0
// spawns (the serial engine's events after mark, ordered by the counter).
// Cross-domain messages are inserted eagerly at send time — there are no
// windows or barriers here, which is the point: if barrier placement
// influenced order, this executor would disagree with the windowed one.

type refEvent struct {
	when  Cycle
	dom   int
	class uint8
	k1    uint64 // class 0/2: scheduling counter; class 1: send cycle
	k2    uint64 // class 1: source domain
	k3    uint64 // class 1: per-source send index
	fn    func()
}

func refLess(a, b refEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.k3 < b.k3
}

type refHeap []refEvent

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return refLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refExec struct {
	h       refHeap
	domNow  []Cycle
	seq     uint64
	sendIdx []uint64
	execDom int // domain currently executing, -1 outside Run
}

func newRefExec(domains int) *refExec {
	return &refExec{
		domNow:  make([]Cycle, domains),
		sendIdx: make([]uint64, domains),
		execDom: -1,
	}
}

func (r *refExec) schedule(dom int, delay Cycle, fn func()) {
	when := r.domNow[dom] + delay
	class := uint8(0)
	if delay == 0 && r.execDom == dom {
		class = 2 // same-cycle spawn while the domain is executing
	}
	r.seq++
	heap.Push(&r.h, refEvent{when: when, dom: dom, class: class, k1: r.seq, fn: fn})
}

func (r *refExec) send(src, dst int, delay Cycle, fn func()) {
	sc := r.domNow[src]
	r.sendIdx[src]++
	heap.Push(&r.h, refEvent{
		when: sc + delay, dom: dst, class: 1,
		k1: uint64(sc), k2: uint64(src), k3: r.sendIdx[src], fn: fn,
	})
}

func (r *refExec) now(dom int) Cycle { return r.domNow[dom] }

func (r *refExec) run() {
	for len(r.h) > 0 {
		ev := heap.Pop(&r.h).(refEvent)
		r.domNow[ev.dom] = ev.when
		r.execDom = ev.dom
		ev.fn()
		r.execDom = -1
	}
}

func runReference(seed uint64, domains int, cross bool) []fingerprint {
	re := newRefExec(domains)
	m := newShardModel(re, seed, domains, cross)
	m.seedRoots()
	re.run()
	return m.fingerprints()
}

// --- tests -----------------------------------------------------------------

func diffFingerprints(t *testing.T, seed uint64, label string, got, want []fingerprint) {
	t.Helper()
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("seed %d: %s domain %d = %+v, want %+v", seed, label, d, got[d], want[d])
		}
	}
}

// TestShardedMatchesReference is the load-bearing tentpole property: across
// thousands of random workloads, the windowed parallel executor matches the
// naive global-order reference for every worker count and every quantum.
func TestShardedMatchesReference(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9E3779B9 + 1
		domains := 2 + int(seed%5) // 2..6
		want := runReference(seed, domains, true)
		for _, quantum := range []Cycle{1, 3, 5, modelSendMin} {
			got := runSharded(seed, domains, 1, quantum, true, nil)
			diffFingerprints(t, seed, "w1", got, want)
		}
		for _, workers := range []int{2, 4} {
			got := runSharded(seed, domains, workers, 5, true, nil)
			diffFingerprints(t, seed, "parallel", got, want)
		}
	}
}

// TestShardedSingleDomainMatchesEngine pins the degenerate case: one domain,
// purely local traffic, must execute exactly as a plain serial Engine.
func TestShardedSingleDomainMatchesEngine(t *testing.T) {
	for s := 0; s < 50; s++ {
		seed := uint64(s)*31 + 7
		eng := NewEngine()
		m := newShardModel(serialBackend{eng}, seed, 1, false)
		m.seedRoots()
		eng.Run(0)
		want := m.fingerprints()

		got := runSharded(seed, 1, 1, 5, false, nil)
		diffFingerprints(t, seed, "single-domain", got, want)
	}
}

// serialBackend adapts the plain Engine for the single-domain test.
type serialBackend struct{ eng *Engine }

func (sb serialBackend) schedule(_ int, delay Cycle, fn func()) { sb.eng.Schedule(delay, fn) }
func (sb serialBackend) send(_, _ int, delay Cycle, fn func())  { sb.eng.Schedule(delay, fn) }
func (sb serialBackend) now(_ int) Cycle                        { return sb.eng.Now() }

// TestShardedStopAtEveryWindow stops the sharded run after every executed
// event (Stop lands at the enclosing window barrier) and resumes until
// drained; the result must be bit-identical to an uninterrupted run.
func TestShardedStopAtEveryWindow(t *testing.T) {
	for s := 0; s < 40; s++ {
		seed := uint64(s)*0xABCD + 3
		want := runReference(seed, 3, true)
		for _, workers := range []int{1, 4} {
			got := runSharded(seed, 3, workers, 5, true, func(se *ShardedEngine, m *shardModel) {
				m.onExec = se.Stop
				for {
					se.Run(0)
					if se.Pending() == 0 {
						return
					}
				}
			})
			diffFingerprints(t, seed, "stop/resume", got, want)
		}
	}
}

// TestShardedChunkedIdentical: RunChunked with pauses at every boundary (and
// resumes after between returns false) is identical to one Run(0).
func TestShardedChunkedIdentical(t *testing.T) {
	for s := 0; s < 40; s++ {
		seed := uint64(s)*977 + 11
		want := runReference(seed, 4, true)
		for _, chunk := range []Cycle{1, 3, 7} {
			got := runSharded(seed, 4, 2, 5, true, func(se *ShardedEngine, m *shardModel) {
				pauses := 0
				for {
					se.RunChunked(0, chunk, func(Cycle) bool {
						pauses++
						return pauses%2 == 0 // alternate continue / hard-stop
					})
					if se.Pending() == 0 {
						return
					}
				}
			})
			diffFingerprints(t, seed, "chunked", got, want)
		}
	}
}

// TestShardedRunLimitClamp mirrors the serial clock-clamp regression at the
// sharded level: a limit below Now() must not rewind any domain's clock.
func TestShardedRunLimitClamp(t *testing.T) {
	se := NewSharded(2, 5)
	defer se.Close()
	se.Domain(0).Schedule(50, func() {})
	se.Domain(1).Schedule(90, func() {})
	if got := se.Run(60); got != 60 {
		t.Fatalf("Run(60) = %d, want 60", got)
	}
	if got := se.Run(10); got != 60 {
		t.Fatalf("Run(10) after reaching 60 = %d, want 60 (clock must not rewind)", got)
	}
	if got := se.Run(0); got != 90 {
		t.Fatalf("Run(0) = %d, want 90", got)
	}
}

// TestShardedSendBelowQuantumPanics pins the conservative-window precondition.
func TestShardedSendBelowQuantumPanics(t *testing.T) {
	se := NewSharded(2, 5)
	defer se.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Send with delay < quantum did not panic")
		}
	}()
	se.Send(0, 1, 4, func() {})
}

// BenchmarkShardedWindows measures the windowed scheduler's overhead on a
// synthetic multi-domain workload; the -cpu flag scales the worker pool (see
// BENCH_parallel.json).
func BenchmarkShardedWindows(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSharded(12345, 6, workers, 5, true, nil)
			}
		})
	}
}
