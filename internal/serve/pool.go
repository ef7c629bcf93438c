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

// admitOutcome is admission's verdict on one submission.
type admitOutcome int

const (
	admitOK         admitOutcome = iota // passed screen; admitted or joined an existing job
	admitInvalid                        // spec fails validation: 400
	admitQuota                          // client over its quota: shed with 429
	admitFull                           // queue full: shed with 429
	admitClientFull                     // this client's backlog full: shed with 429
	admitDraining                       // server draining: refuse with 503
)

// pool is the execution side of the server: a fixed worker set behind a
// bounded weighted-fair wait queue, a job table deduplicating distinct
// requests, and one harness.Runner memoizing every cell in front of the
// durable store. Admission, status, and drain all meet here.
type pool struct {
	s      *Server
	runner *harness.Runner

	fq       *fairQueue
	workerWG sync.WaitGroup
	taskWG   sync.WaitGroup
	draining atomic.Bool
	running  atomic.Int64 // busy workers

	// baseCtx parents every request context; canceled (with cause) when a
	// drain runs out of patience.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	// jobs is the job table, id -> *jobState. Reads are lock-free; every
	// insert happens under mu, so admit's check-then-insert is atomic.
	jobs sync.Map
	mu   sync.Mutex
}

func newPool(s *Server) *pool {
	var weightOf func(string) int
	if len(s.cfg.ClientWeights) > 0 {
		w := s.cfg.ClientWeights
		weightOf = func(client string) int { return w[client] }
	}
	p := &pool{
		s:  s,
		fq: newFairQueue(s.cfg.QueueDepth, s.cfg.PerClientQueue, weightOf),
	}
	// The runner sees only cells, which carry their own scale and seed, so
	// its Scale and Seed go unused.
	r := harness.NewRunner(1)
	r.Store = s.cfg.Store
	r.StoreReuse = true
	r.Verbose = s.cfg.Verbose
	if s.coal != nil {
		// Write-behind: completed cells accumulate in the coalescer and hit
		// the disk as batched commits instead of one fsync per simulation.
		r.Persist = p.persist
	}
	if s.traces != nil {
		// Span capture extends to the engine: executed runs carry a sim-level
		// recorder, retained in a bounded LRU keyed by run id so /v1/spans
		// can put the request span and its engine events on one timeline.
		r.Trace = &trace.Options{RingSize: simTraceRing}
		r.TraceSink = s.traces.put
	}
	p.runner = r
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
	id := p.s.runIDFor(&sp)

	p.mu.Lock()
	defer p.mu.Unlock()
	if js, ok := p.lookup(id); ok && !js.failed() {
		p.s.met.deduped.Add(1)
		return js, admitOK
	}

	// Fast path: the cell already has a completed result in a cache tier.
	// Serving it costs a map lookup or a disk read — never a queue slot, so
	// repeat traffic cannot be shed even under saturation.
	if m, ok := p.runner.Lookup(sp.cell()); ok && !m.Truncated {
		js := &jobState{id: id, spec: sp, client: client, done: make(chan struct{}), m: m, source: "cache"}
		js.setStatus(statusDone)
		close(js.done)
		p.jobs.Store(id, js)
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
		p.jobs.Store(id, js)
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

// runIDFor resolves a validated spec's public run id, its cell's ID: for an
// unbudgeted request exactly the result's content address in the on-disk
// store, so the id stays resolvable across server restarts (GET falls back
// to a store read); a budgeted request's id carries a "-b<budget>" suffix,
// which the store fallback strips. The id (a canonical-JSON marshal plus a
// SHA-256) is computed once per spec identity and cached under
// spec.cacheKey, where the lock-free join in Server.place finds it.
func (s *Server) runIDFor(sp *RunSpec) string {
	if v, ok := s.idCache.Load(sp.cacheKey()); ok {
		return v.(string)
	}
	id := sp.cell().ID()
	s.idCache.Store(sp.cacheKey(), id)
	return id
}

// lookup finds a live or completed job by id, lock-free.
func (p *pool) lookup(id string) (*jobState, bool) {
	v, ok := p.jobs.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*jobState), true
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
	p.s.met.observeStages(wait, time.Duration(js.persistUS.Load())*time.Microsecond)
	js.m, js.source, js.err = m, source, err
	js.elapsedMS = elapsed.Milliseconds()
	if err != nil {
		js.setStatus(statusFailed)
	} else {
		js.setStatus(statusDone)
	}
	close(js.done)
}

// simulate is the production execute hook: the runner memoizes,
// singleflights, and persists the cell.
func (s *Server) simulate(ctx context.Context, js *jobState) (*stats.Metrics, string, error) {
	m, err := s.pool.runner.RunCell(ctx, js.spec.cell())
	return m, "run", err
}

// simTraceRing sizes the per-run sim recorder rings under span capture:
// small enough that eight retained runs stay cheap, large enough to hold the
// tail of a serving-scale simulation.
const simTraceRing = 1 << 12

// persist is the runner's Persist hook: it hands a completed cell to the
// coalescer and times the hand-off. The duration lands on the owning
// jobState (resolved by store key — the run id), in the persist-stage
// histogram via runTask's observeStages, and on the span timeline.
func (p *pool) persist(storeKey, desc string, m *stats.Metrics) error {
	t0 := time.Now()
	err := p.s.coal.put(storeKey, desc, m)
	d := time.Since(t0)
	if js, ok := p.lookup(storeKey); ok {
		js.persistUS.Store(d.Microseconds())
	}
	p.s.span(stagePersist, "", storeKey, uint64(d.Microseconds()), 0)
	return err
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
