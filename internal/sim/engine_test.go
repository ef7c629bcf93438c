package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// --- oracle: the original container/heap engine, kept as a reference ---
// oracleEngine reimplements the pre-optimization event loop verbatim; the
// property tests below require the fast queue to match it event-for-event.

type oracleHeap []event

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return eventLess(h[i], h[j]) }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type oracleEngine struct {
	pq      oracleHeap
	now     Cycle
	seq     uint64
	stopped bool
}

func (e *oracleEngine) Now() Cycle { return e.now }

func (e *oracleEngine) Schedule(delay Cycle, fn func()) { e.At(e.now+delay, fn) }

func (e *oracleEngine) At(when Cycle, fn func()) {
	e.seq++
	heap.Push(&e.pq, event{when: when, seq: e.seq, fn: fn})
}

func (e *oracleEngine) Stop() { e.stopped = true }

func (e *oracleEngine) Run(limit Cycle) Cycle {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		ev := heap.Pop(&e.pq).(event)
		if limit != 0 && ev.when > limit {
			heap.Push(&e.pq, ev)
			e.now = limit
			return e.now
		}
		e.now = ev.when
		ev.fn()
	}
	return e.now
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle, FIFO
	e.Schedule(20, func() { order = append(order, 4) })
	end := e.Run(0)
	if end != 20 {
		t.Fatalf("end cycle = %d, want 20", end)
	}
	want := []int{1, 2, 3, 4}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Cycle
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(3, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run(0)
	if len(hits) != 3 || hits[0] != 1 || hits[1] != 1 || hits[2] != 4 {
		t.Fatalf("hits = %v, want [1 1 4]", hits)
	}
}

func TestEngineRunLimitResumes(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(5, func() { ran++ })
	e.Schedule(15, func() { ran++ })
	e.Run(10)
	if ran != 1 || e.Now() != 10 {
		t.Fatalf("after limited run: ran=%d now=%d", ran, e.Now())
	}
	e.Run(0)
	if ran != 2 || e.Now() != 15 {
		t.Fatalf("after resume: ran=%d now=%d", ran, e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run(0)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop should halt)", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At() in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

// Property: events always execute in non-decreasing time order, regardless of
// the insertion order of delays.
func TestEngineMonotonicTimeProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var times []Cycle
		for _, d := range delays {
			d := Cycle(d)
			e.Schedule(d, func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRunLimitOverLimitEventKept verifies the resume contract in
// detail: an over-limit event is left queued (not dropped, not executed), the
// clock parks exactly at the limit, and repeated limited runs advance through
// the schedule without losing or duplicating events.
func TestEngineRunLimitOverLimitEventKept(t *testing.T) {
	e := NewEngine()
	var hits []Cycle
	for _, d := range []Cycle{3, 7, 12, 25} {
		d := d
		e.Schedule(d, func() { hits = append(hits, e.Now()) })
	}
	for _, limit := range []Cycle{5, 10, 20, 0} {
		e.Run(limit)
	}
	want := []Cycle{3, 7, 12, 25}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
	if e.Pending() != 0 || e.Now() != 25 {
		t.Fatalf("after final run: pending=%d now=%d", e.Pending(), e.Now())
	}
}

// TestEngineStopMidCycle stops between two same-cycle events and checks that
// the resumed run executes the remainder of the cycle in FIFO order — the
// same-cycle FIFO must survive a Stop.
func TestEngineStopMidCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, func() {
		order = append(order, 1)
		// Same-cycle follow-ups land in the FIFO; Stop after the first.
		e.Schedule(0, func() { order = append(order, 2); e.Stop() })
		e.Schedule(0, func() { order = append(order, 3) })
	})
	e.Schedule(9, func() { order = append(order, 4) })
	e.Run(0)
	if len(order) != 2 || e.Pending() != 2 {
		t.Fatalf("after stop: order=%v pending=%d", order, e.Pending())
	}
	if e.Now() != 5 {
		t.Fatalf("stop advanced the clock: now=%d", e.Now())
	}
	// Scheduling more current-cycle work while stopped must queue behind the
	// FIFO remainder, not jump ahead of it.
	e.At(e.Now(), func() { order = append(order, 5) })
	e.Run(0)
	want := []int{1, 2, 3, 5, 4}
	for i, v := range want {
		if len(order) != len(want) || order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineAtCurrentCycleDuringRun schedules via At(Now()) from inside an
// event and checks it runs this cycle, after already-queued same-cycle work.
func TestEngineAtCurrentCycleDuringRun(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2, func() {
		order = append(order, 1)
		e.At(e.Now(), func() { order = append(order, 3) })
	})
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i, v := range want {
		if len(order) != len(want) || order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("now = %d, want 2", e.Now())
	}
}

// testQueue is the scheduling surface the test workloads drive, so one
// workload runs on both the Engine and the container/heap oracle.
type testQueue interface {
	Now() Cycle
	Schedule(Cycle, func())
	At(Cycle, func())
}

// wideDelay hashes x onto a delay that reaches every part of the queue:
// short hops including same-cycle, both sides of the wheel horizon, anywhere
// up to four wheel turns ahead, the current bucket index on a later turn, and
// far beyond the wheel.
func wideDelay(x uint) Cycle {
	h := Mix64(uint64(x))
	switch r := h >> 3; h % 5 {
	case 0:
		return Cycle(r % 16)
	case 1:
		return wheelSize - 3 + Cycle(r%7)
	case 2:
		return Cycle(r % (4*wheelSize + 1))
	case 3:
		return Cycle(r%4) * wheelSize
	default:
		return 8*wheelSize + Cycle(r%64)
	}
}

// TestEngineMatchesOracle is the load-bearing equivalence property: a
// randomized workload of delays — with nested rescheduling, heavy same-cycle
// fan-out, delays across the wheel horizon and far beyond it, and limited runs
// that stop between occupied buckets — must execute in exactly the same order
// at exactly the same cycles on the timing wheel as on the original
// container/heap engine.
func TestEngineMatchesOracle(t *testing.T) {
	type rec struct {
		id   int
		when Cycle
	}
	// drive runs the same deterministic scenario against either engine.
	drive := func(delays []uint16, q testQueue, run func(Cycle) Cycle) []rec {
		var trace []rec
		id := 0
		var add func(d Cycle, depth int)
		add = func(d Cycle, depth int) {
			me := id
			id++
			fn := func() {
				trace = append(trace, rec{me, q.Now()})
				if depth > 0 {
					// Deterministic nested fan-out: one same-cycle event and
					// one future event per level.
					add(0, depth-1)
					add(wideDelay(uint(d)+uint(me)), depth-1)
				}
			}
			if me%4 == 3 {
				q.At(q.Now()+d, fn)
			} else {
				q.Schedule(d, fn)
			}
		}
		for _, d := range delays {
			add(wideDelay(uint(d)), int(d%3))
		}
		// Run in limited slices, then to completion.
		for _, limit := range []Cycle{4, 9, wheelSize - 1, wheelSize + 2, 3*wheelSize + 17, 0} {
			run(limit)
		}
		return trace
	}

	prop := func(delays []uint16) bool {
		fast := NewEngine()
		ft := drive(delays, fast, fast.Run)
		oracle := &oracleEngine{}
		ot := drive(delays, oracle, oracle.Run)
		if len(ft) != len(ot) {
			return false
		}
		for i := range ft {
			if ft[i] != ot[i] {
				return false
			}
		}
		return fast.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSameCycleOrder pins the order of every kind of event due at one
// cycle T: an overflow event (scheduled a full wheel turn ahead), then an
// event scheduled before the clock reached T, then delay-0 spawns, then a
// Schedule(0) made while stopped with spawns pending. A Schedule(0) made
// while stopped with no spawn pending runs before the spawns queued after it.
func TestEngineSameCycleOrder(t *testing.T) {
	const T = wheelSize + 5
	for _, tc := range []struct {
		stopIn string // the event that calls Stop
		want   []string
	}{
		{"spawn1", []string{"overflow", "earlier", "spawn1", "spawn2", "stopped"}},
		{"overflow", []string{"overflow", "earlier", "stopped", "spawn1", "spawn2"}},
	} {
		e := NewEngine()
		var got []string
		ev := func(name string, body func()) func() {
			return func() {
				got = append(got, name)
				if body != nil {
					body()
				}
				if name == tc.stopIn {
					e.Stop()
				}
			}
		}
		e.Schedule(T, ev("overflow", nil))
		e.At(T-10, func() {
			e.Schedule(10, ev("earlier", func() {
				e.Schedule(0, ev("spawn1", nil))
				e.Schedule(0, ev("spawn2", nil))
			}))
		})
		if len(e.pq) != 1 {
			t.Fatalf("overflow heap holds %d events, want the overflow event", len(e.pq))
		}
		e.Run(0)
		if e.Now() != T {
			t.Fatalf("stopped at cycle %d, want %d", e.Now(), T)
		}
		e.Schedule(0, ev("stopped", nil))
		e.Run(0)
		if len(got) != len(tc.want) {
			t.Fatalf("stop in %s: order %v, want %v", tc.stopIn, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("stop in %s: order %v, want %v", tc.stopIn, got, tc.want)
			}
		}
	}
}

// TestEngineSteadyStateZeroAlloc gates the queue's steady state: once the
// node slab and the overflow heap have grown, Schedule, At and Run allocate
// nothing, whichever part of the queue an event lands in.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	round := func() {
		for i := 0; i < 256; i++ {
			e.Schedule(Cycle(i%8), nop)
			e.Schedule(Cycle(i)*19, nop) // up to past four wheel turns
			e.At(e.Now()+Cycle(i%3)*wheelSize, nop)
		}
		e.Run(0)
	}
	round() // warm-up: grow the slab and the heap
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state Schedule/At/Run allocated %.1f times per round, want 0", allocs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(42).Uint64() == NewRNG(43).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	same := 0
	for i := 0; i < 64; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("forked streams collided %d/64 times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}
