// Package sim provides the deterministic discrete-event simulation engine
// that underpins the GPU timing model.
//
// All components (SIMT cores, crossbars, memory partitions, validation and
// commit units) advance simulated time exclusively by scheduling events on a
// shared Engine. Events at the same cycle run in scheduling order, so a run
// with a fixed seed is fully reproducible.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in interconnect-clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type event struct {
	when Cycle
	seq  uint64 // tie-break: FIFO among events at the same cycle
	fn   func()
}

// eventLess orders events by (when, seq): time first, FIFO within a cycle.
func eventLess(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// The timing wheel has one bucket per cycle for the next wheelSize cycles.
// 2^10 covers every delay the timing model schedules except retry backoff
// and badly congested ports: crossbar hops, VU/CU service, LLC (60) and DRAM
// (~236) round trips and compute latencies all fall well inside it.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// node is one pending wheel event. Nodes live in Engine.nodes and link by
// index; index 0 is a sentinel, so a zero link means "none".
type node struct {
	fn   func()
	next int32
}

// bucket is an intrusive FIFO of the nodes due at one cycle.
type bucket struct{ head, tail int32 }

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// The event queue is a timing wheel — its push/pop pair is the innermost
// loop of every simulation:
//
//   - Every event due in [now, now+wheelSize) sits in bucket when&wheelMask,
//     a FIFO of nodes drawn from one slab with a freelist and int32 links
//     (no per-bucket slices). The occ bitmap finds the next non-empty bucket
//     with bits.TrailingZeros64. Push appends to a tail and dispatch pops a
//     head, both O(1); a delay-0 event simply appends to the current bucket.
//   - pq, a binary min-heap over (when, seq), is only the overflow: events
//     due at or beyond now+wheelSize when scheduled.
//
// Dispatch is exactly (when, seq) order over one global queue. At cycle t
// the overflow events due at t run first — they were scheduled at least
// wheelSize cycles earlier, so they carry smaller seqs than any bucket-t
// event — and then bucket t in FIFO (= seq) order, including the same-cycle
// spawns and any Schedule(0) made while no Run is executing.
type Engine struct {
	buckets [wheelSize]bucket
	occ     [wheelWords]uint64 // bit b set iff buckets[b] is non-empty
	nodes   []node             // slab; nodes[0] is the nil sentinel
	free    int32              // freelist head
	inWheel int                // nodes pending in the wheel

	pq      []event // overflow min-heap ordered by eventLess
	now     Cycle
	seq     uint64
	stopped bool
	// Executed counts events run; useful for run-away detection in tests.
	Executed uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Reset empties the engine and rewinds it to cycle 0, dropping every pending
// event, and keeps the node slab and overflow heap's capacity: a reset
// engine runs exactly as a new one would, without growing them again. Every
// queued callback is released, so a reset engine keeps nothing of its last
// run alive.
func (e *Engine) Reset() {
	clear(e.nodes)
	e.nodes = e.nodes[:0]
	clear(e.pq)
	e.pq = e.pq[:0]
	e.buckets = [wheelSize]bucket{}
	e.occ = [wheelWords]uint64{}
	e.free, e.inWheel = 0, 0
	e.now, e.seq, e.stopped, e.Executed = 0, 0, false, 0
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Schedule runs fn after delay cycles (delay 0 means later this cycle, after
// all events already scheduled for the current cycle).
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.push(e.now+delay, fn)
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic("sim: scheduling event in the past")
	}
	e.push(when, fn)
}

// push appends an event to its wheel bucket, or to the overflow heap when it
// is due beyond the wheel's horizon.
func (e *Engine) push(when Cycle, fn func()) {
	e.seq++
	if when-e.now >= wheelSize {
		e.heapPush(event{when: when, seq: e.seq, fn: fn})
		return
	}
	b := uint(when) & wheelMask
	bk := &e.buckets[b]
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = node{fn: fn}
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{}) // sentinel
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{fn: fn})
	}
	if bk.tail != 0 {
		e.nodes[bk.tail].next = i
	} else {
		bk.head = i
		e.occ[b>>6] |= 1 << (b & 63)
	}
	bk.tail = i
	e.inWheel++
}

// popBucket removes the head of bucket b, which must be the current cycle's
// and non-empty, and returns its callback.
func (e *Engine) popBucket(b uint) func() {
	bk := &e.buckets[b]
	i := bk.head
	n := &e.nodes[i]
	fn := n.fn
	bk.head = n.next
	if n.next == 0 {
		bk.tail = 0
		e.occ[b>>6] &^= 1 << (b & 63)
	}
	n.fn = nil // release fn for GC
	n.next = e.free
	e.free = i
	e.inWheel--
	return fn
}

// Stop aborts the current Run after the in-flight event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.inWheel + len(e.pq) }

// nextBucket returns the cycle of the earliest non-empty wheel bucket; ok is
// false when the wheel is empty. Every wheel event is due in
// [now, now+wheelSize), so scanning the bitmap circularly from now's bucket
// visits the buckets in time order.
func (e *Engine) nextBucket() (when Cycle, ok bool) {
	if e.inWheel == 0 {
		return 0, false
	}
	start := uint(e.now) & wheelMask
	w := start >> 6
	word := e.occ[w] &^ (1<<(start&63) - 1)
	for i := 0; i <= wheelWords; i++ {
		if word != 0 {
			b := w<<6 | uint(bits.TrailingZeros64(word))
			return e.now + Cycle((b-start)&wheelMask), true
		}
		w = (w + 1) % wheelWords
		word = e.occ[w]
	}
	panic("sim: wheel count and bitmap disagree")
}

// nextWhen returns the earliest pending event time; ok is false when the
// queue is empty.
func (e *Engine) nextWhen() (when Cycle, ok bool) {
	when, ok = e.nextBucket()
	if len(e.pq) > 0 && (!ok || e.pq[0].when < when) {
		return e.pq[0].when, true
	}
	return when, ok
}

// Run executes events until the queue empties, Stop is called, or the
// simulated clock passes limit (0 means no limit). It returns the cycle at
// which it stopped. After Stop, a subsequent Run resumes mid-cycle with
// same-cycle FIFO order preserved.
//
// Contract: the simulated clock never moves backwards. A limit below Now()
// is a no-op that returns Now() unchanged — earlier versions assigned
// e.now = limit unconditionally on the limit branch, so a resumed run with a
// stale limit could rewind time and violate the At() past-check downstream.
func (e *Engine) Run(limit Cycle) Cycle {
	if limit != 0 && limit < e.now {
		return e.now
	}
	e.stopped = false
	for !e.stopped {
		var fn func()
		b := uint(e.now) & wheelMask
		if len(e.pq) > 0 && e.pq[0].when == e.now {
			fn = e.heapPop().fn
		} else if e.buckets[b].head != 0 {
			fn = e.popBucket(b)
		} else {
			when, ok := e.nextWhen()
			if !ok {
				return e.now
			}
			if limit != 0 && when > limit {
				// Leave it queued so a subsequent Run can resume; limit >= e.now
				// was checked above, so this never rewinds the clock.
				e.now = limit
				return e.now
			}
			e.now = when
			continue
		}
		e.Executed++
		fn()
	}
	return e.now
}

// RunChunked executes like Run(limit), but pauses at every multiple of chunk
// cycles reached with events still pending and calls between(now). Returning
// false from between stops the run at that boundary; the queue is left intact,
// so a later Run or RunChunked resumes exactly where this one stopped.
//
// The chunked eng.Run calls process events in precisely the order one
// Run(limit) call would — pausing schedules nothing and mutates no state — so
// a chunked run is cycle-identical to an unchunked one (see
// TestRunChunkedIdentical). This is the primitive behind both interval
// telemetry sampling and cooperative cancellation in the gpu layer: between
// is the hook where samples are taken and contexts polled, bounding cancel
// latency to one chunk of simulated cycles.
//
// A chunk of 0 degenerates to a single Run(limit) call; between is never
// invoked.
func (e *Engine) RunChunked(limit, chunk Cycle, between func(now Cycle) bool) Cycle {
	if chunk == 0 {
		return e.Run(limit)
	}
	next := e.now + chunk
	var end Cycle
	for {
		target := next
		if limit != 0 && target > limit {
			target = limit
		}
		end = e.Run(target)
		if e.Pending() == 0 {
			return end
		}
		if limit != 0 && end >= limit {
			return end
		}
		if end >= target {
			if between != nil && !between(end) {
				return end
			}
			next += chunk
		}
	}
}

// heapPush inserts an event into the overflow min-heap.
func (e *Engine) heapPush(ev event) {
	pq := append(e.pq, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(pq[i], pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	e.pq = pq
}

// heapPop removes and returns the minimum event.
func (e *Engine) heapPop() event {
	pq := e.pq
	top := pq[0]
	n := len(pq) - 1
	pq[0] = pq[n]
	pq[n] = event{} // release fn for GC
	pq = pq[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && eventLess(pq[r], pq[l]) {
			c = r
		}
		if !eventLess(pq[c], pq[i]) {
			break
		}
		pq[i], pq[c] = pq[c], pq[i]
		i = c
	}
	e.pq = pq
	return top
}
