package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/harness"
	"getm/internal/stats"
	"getm/internal/trace"
)

// admitOutcome is the queue's verdict on one submission.
type admitOutcome int

const (
	admitOK         admitOutcome = iota // admitted (or joined an existing job)
	admitFull                           // queue full: shed with 429
	admitClientFull                     // this client's backlog full: shed with 429
	admitDraining                       // server draining: refuse with 503
)

// pool is the execution side of the server: a fixed worker set behind a
// bounded weighted-fair wait queue, a job table deduplicating distinct
// requests, and one harness.Runner per (scale, seed) sharing the durable
// store. Admission, status, and drain all meet here.
type pool struct {
	s *Server

	fq       *fairQueue
	workerWG sync.WaitGroup
	taskWG   sync.WaitGroup
	draining atomic.Bool
	running  atomic.Int64 // busy workers

	// baseCtx parents every request context; canceled (with cause) when a
	// drain runs out of patience.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	// jobsFast mirrors jobs for lock-free reads: the admission fast path and
	// the status endpoint load from it without touching mu. Writes happen
	// under mu (store-after-insert), so a fast-path hit always sees a
	// fully-initialized jobState.
	jobsFast sync.Map // id -> *jobState

	mu      sync.Mutex
	jobs    map[string]*jobState
	runners map[runnerKey]*harness.Runner
}

// runnerKey identifies one workload parameterization; jobs differing only in
// machine knobs share a runner (and its caches).
type runnerKey struct {
	scale float64
	seed  uint64
}

func newPool(s *Server) *pool {
	var weightOf func(string) int
	if len(s.cfg.ClientWeights) > 0 {
		w := s.cfg.ClientWeights
		weightOf = func(client string) int { return w[client] }
	}
	p := &pool{
		s:       s,
		fq:      newFairQueue(s.cfg.QueueDepth, s.cfg.PerClientQueue, weightOf),
		jobs:    make(map[string]*jobState),
		runners: make(map[runnerKey]*harness.Runner),
	}
	p.baseCtx, p.baseCancel = context.WithCancelCause(context.Background())
	p.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// perClientCap reports the effective per-client backlog bound.
func (p *pool) perClientCap() int { return p.fq.perCap }

// admit places one validated spec: joining an identical live (or completed)
// job, serving a completed cell from a cache tier without a queue slot, or
// taking a fair-queue slot under the submitting client's key — all
// atomically, so identical concurrent submissions collapse onto one
// jobState.
func (p *pool) admit(sp RunSpec, client string) (*jobState, admitOutcome) {
	if p.draining.Load() {
		return nil, admitDraining
	}
	r := p.runnerFor(sp)
	job := sp.job()
	id := runID(r.StoreKey(job), sp)

	p.mu.Lock()
	defer p.mu.Unlock()
	if js, ok := p.jobs[id]; ok {
		// Join the existing job — unless it finished in failure: failures
		// from per-request deadlines are timing-dependent, so a fresh
		// submission deserves a fresh attempt.
		retry := false
		select {
		case <-js.done:
			retry = js.err != nil
		default:
		}
		if !retry {
			p.s.met.deduped.Add(1)
			return js, admitOK
		}
	}

	// Fast path: the cell already has a completed result in a cache tier.
	// Serving it costs a map lookup or a disk read — never a queue slot, so
	// repeat traffic cannot be shed even under saturation.
	if m, ok := r.Lookup(job); ok && !m.Truncated {
		js := &jobState{id: id, spec: sp, client: client, done: make(chan struct{}), m: m, source: "cache"}
		js.setStatus(statusDone)
		close(js.done)
		p.insertLocked(id, sp, js)
		p.s.span(stageJoin, client, id, 0, 0)
		return js, admitOK
	}

	// Re-check under p.mu: drain flips the flag under the same lock, so a
	// task counted here is counted before drain starts waiting on taskWG.
	if p.draining.Load() {
		return nil, admitDraining
	}
	js := &jobState{id: id, spec: sp, client: client, done: make(chan struct{}), queuedAt: time.Now()}
	js.setStatus(statusQueued)
	// Count the task before a worker can pop it: a worker that finishes it
	// first would otherwise drive taskWG negative.
	p.taskWG.Add(1)
	switch err := p.fq.push(client, js); err {
	case nil:
		p.insertLocked(id, sp, js)
		p.s.span(stageMiss, client, id, 0, 0)
		p.s.span(stageEnqueue, client, id, 0, 0)
		return js, admitOK
	case errClientFull:
		p.taskWG.Done()
		return nil, admitClientFull
	default: // errQueueFull, errQueueDone
		p.taskWG.Done()
		return nil, admitFull
	}
}

// insertLocked publishes a jobState to the locked table, the lock-free
// mirror, and the spec→id cache (in that order, so fast-path hits only see
// published jobs). Caller holds p.mu.
func (p *pool) insertLocked(id string, sp RunSpec, js *jobState) {
	p.jobs[id] = js
	p.jobsFast.Store(id, js)
	p.s.idCache.Store(sp.cacheKey(), id)
}

// lookup finds a live or completed job by id, lock-free.
func (p *pool) lookup(id string) (*jobState, bool) {
	v, ok := p.jobsFast.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*jobState), true
}

// hasHeadroom reports whether the wait queue can absorb another request.
func (p *pool) hasHeadroom() bool {
	return p.fq.len() < p.fq.capacity
}

func (p *pool) worker() {
	defer p.workerWG.Done()
	for {
		js, ok := p.fq.pop()
		if !ok {
			return
		}
		p.runTask(js)
	}
}

// runTask executes one admitted job under its per-request deadline and
// publishes the outcome.
func (p *pool) runTask(js *jobState) {
	defer p.taskWG.Done()
	p.running.Add(1)
	defer p.running.Add(-1)
	js.setStatus(statusRunning)
	wait := time.Since(js.queuedAt)
	js.queueUS = wait.Microseconds()
	p.s.span(stageDequeue, js.client, js.id, uint64(js.queueUS), 0)

	timeout := p.s.cfg.RequestTimeout
	if t := time.Duration(js.spec.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(p.baseCtx, timeout)
	p.s.span(stageSimStart, js.client, js.id, 0, 0)
	start := time.Now()
	m, source, err := p.s.execute(ctx, js)
	cancel()
	elapsed := time.Since(start)
	js.simUS = elapsed.Microseconds()
	var cycles uint64
	if m != nil {
		cycles = m.TotalCycles
	}
	p.s.span(stageSimFinish, js.client, js.id, uint64(js.simUS), cycles)

	p.s.met.observe(elapsed, m, err)
	p.s.met.observeStages(wait, elapsed, time.Duration(js.persistUS.Load())*time.Microsecond)
	js.m, js.source, js.err = m, source, err
	js.elapsedMS = elapsed.Milliseconds()
	if err != nil {
		js.setStatus(statusFailed)
	} else {
		js.setStatus(statusDone)
	}
	close(js.done)
}

// simulate is the production execute hook: the request's (scale, seed)
// runner memoizes, singleflights, and persists the cell.
func (s *Server) simulate(ctx context.Context, js *jobState) (*stats.Metrics, string, error) {
	r := s.pool.runnerFor(js.spec)
	m, err := r.RunECtx(ctx, js.spec.job())
	return m, "run", err
}

// runnerFor returns (creating on first use) the runner owning this
// workload parameterization's caches.
func (p *pool) runnerFor(sp RunSpec) *harness.Runner {
	k := runnerKey{sp.Scale, sp.Seed}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.runners[k]; ok {
		return r
	}
	r := harness.NewRunner(sp.Scale)
	r.Seed = sp.Seed
	r.Store = p.s.cfg.Store
	r.StoreReuse = true
	r.Verbose = p.s.cfg.Verbose
	switch {
	case p.s.coal != nil:
		// Write-behind: completed cells accumulate in the coalescer and hit
		// the disk as batched commits instead of one fsync per simulation.
		r.Persist = p.timedPersist(p.s.coal.put)
	case p.s.cfg.Store != nil:
		// Baseline (or coalescer-less) arm: the synchronous per-simulation
		// Store.Put discipline, routed through the timing wrapper so stage
		// timings cover both arms.
		st := p.s.cfg.Store
		r.Persist = p.timedPersist(func(key, desc string, m *stats.Metrics) error {
			return st.Put(key, desc, m)
		})
	}
	if p.s.traces != nil {
		// Span capture extends to the engine: executed runs carry a sim-level
		// recorder, retained in a bounded LRU keyed by run id so /v1/spans
		// can put the request span and its engine events on one timeline.
		r.Trace = &trace.Options{RingSize: simTraceRing}
		r.TraceSink = p.s.traces.put
	}
	p.runners[k] = r
	return r
}

// simTraceRing sizes the per-run sim recorder rings under span capture:
// small enough that eight retained runs stay cheap, large enough to hold the
// tail of a serving-scale simulation.
const simTraceRing = 1 << 12

// timedPersist wraps a Persist hook with stage timing: the measured duration
// lands on the owning jobState (resolved by store key — the run id), in the
// persist-stage histogram via runTask's observe, and on the span timeline.
func (p *pool) timedPersist(inner func(string, string, *stats.Metrics) error) func(string, string, *stats.Metrics) error {
	return func(storeKey, desc string, m *stats.Metrics) error {
		t0 := time.Now()
		err := inner(storeKey, desc, m)
		d := time.Since(t0)
		if v, ok := p.jobsFast.Load(storeKey); ok {
			v.(*jobState).persistUS.Store(d.Microseconds())
		}
		p.s.span(stagePersist, "", storeKey, uint64(d.Microseconds()), 0)
		return err
	}
}

// simulated and storeHits aggregate the runner instrumentation across every
// workload parameterization.
func (p *pool) simulated() int {
	n := 0
	for _, r := range p.snapshotRunners() {
		n += r.Simulated()
	}
	return n
}

func (p *pool) storeHits() int {
	n := 0
	for _, r := range p.snapshotRunners() {
		n += r.StoreHits()
	}
	return n
}

func (p *pool) snapshotRunners() []*harness.Runner {
	p.mu.Lock()
	defer p.mu.Unlock()
	rs := make([]*harness.Runner, 0, len(p.runners))
	for _, r := range p.runners {
		rs = append(rs, r)
	}
	return rs
}

// drain refuses new work, gives queued and in-flight runs until timeout to
// finish, cancels whatever remains (engines stop within one chunk of
// simulated cycles), and stops the workers.
func (p *pool) drain(timeout time.Duration) error {
	p.mu.Lock() // orders the flip against admit's taskWG.Add (see admit)
	p.draining.Store(true)
	p.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		p.taskWG.Wait()
		close(finished)
	}()

	var err error
	select {
	case <-finished:
	case <-time.After(timeout):
		p.baseCancel(fmt.Errorf("server draining: %s drain timeout elapsed", timeout))
		// Cancellation propagates within one engine chunk; allow a grace
		// period before declaring the pool wedged.
		select {
		case <-finished:
			err = fmt.Errorf("drain: in-flight work canceled after %s", timeout)
		case <-time.After(30 * time.Second):
			return errors.New("drain: tasks still running after cancellation grace period")
		}
	}
	p.fq.close()
	p.workerWG.Wait()
	return err
}
