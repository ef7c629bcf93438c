// Package harness defines the reproduction experiments: one entry per figure
// and table of the paper's evaluation (Figs 3-17, Tables IV-V), built on a
// thread-safe caching runner so shared configurations (e.g. each protocol at
// its optimal concurrency) simulate once per process, no matter how many
// goroutines ask for them.
package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/report"
	"getm/internal/sim"
	"getm/internal/stats"
	"getm/internal/store"
	"getm/internal/trace"
	"getm/internal/workloads"
)

// ConcLevels are the paper's transactional-concurrency settings (0 = NL).
var ConcLevels = []int{1, 2, 4, 8, 16, 0}

// Runner executes, deduplicates, and caches simulation runs in two tiers:
// an in-memory map in front of an optional crash-safe on-disk store. A
// process resumed after a kill re-runs only the cells the previous process
// never persisted, and — because stored metrics round-trip exactly — its
// reports are byte-identical to an uninterrupted run's.
//
// A simulation's identity is its Cell: every cache, the singleflight map and
// batch dedupe key on Cell.ID, so each unique cell simulates exactly once
// per process however it was spelled. Jobs are the experiments' shorthand
// for cells and expand at the runner's Scale, Seed and Policy pin.
//
// Concurrency contract: Run, RunE, RunCell, RunCells, RunOptimal,
// OptimalConc, Err, and Precompute are all safe to call from any number of
// goroutines. Concurrent callers of one cell block until the one executing
// simulation finishes and then share its (immutable) result. The
// configuration fields (Scale, Seed, Policy, Verbose, Ctx, Store,
// StoreReuse) must be set before the first Run* call and not mutated
// afterwards; Verbose may be invoked from any worker goroutine.
type Runner struct {
	// Scale shrinks the workloads jobs expand to (1.0 = full reproduction
	// scale). Cells carry their own.
	Scale float64
	// Seed drives the workload generation of the cells jobs expand to.
	Seed uint64
	// Verbose, if set, receives progress lines (possibly from multiple
	// goroutines at once). A line that starts with "warning: " (a failed
	// store write, which a later resume re-simulates) is a warning, not
	// progress: a CLI that drops progress still prints it.
	Verbose func(string)
	// Ctx, if set, cancels in-flight and future simulations: once it fires,
	// running engines stop within one chunk of simulated cycles and RunE
	// returns an error matching gpu.ErrCanceled. Canceled results are never
	// cached in either tier, so a later process (or a retry with a live
	// context) re-runs them.
	Ctx context.Context
	// Store, if set, is the durable second cache tier: every completed
	// simulation is persisted, and (when StoreReuse is set) cache misses
	// consult the store before simulating. Errors are never persisted.
	Store *store.Store
	// StoreReuse enables reading existing records from Store. Without it the
	// store is write-only: records are refreshed but never trusted — the
	// CLIs' `-resume=false`.
	StoreReuse bool
	// Persist, if set, replaces the direct Store.Put for completed
	// simulations: the runner hands (storeKey, desc, metrics) to the hook
	// and moves on. A serving stack points this at a write-behind coalescer
	// so the simulation path never blocks on an fsync; the hook owner then
	// guarantees durability on its own schedule (flush interval, high-water
	// mark, graceful drain). Reads still go through Store directly, so the
	// hook must front the same store the runner consults — any record it has
	// not flushed yet is still covered by the runner's in-memory tier.
	Persist func(storeKey, desc string, m *stats.Metrics) error
	// Policy, when non-zero, pins every transactional job (every protocol
	// but fglock) to one protocol-matrix point: expanding a job into its
	// cell replaces its Proto with gpu.ProtocolOf(Policy). The v2 API's
	// WithPolicy option sets this. A preset point is its legacy protocol
	// name, so pinning a preset changes no cache or store identity.
	Policy policy.Policy
	// Trace, if set, attaches a trace recorder to every simulation this
	// runner actually executes (cache and store hits never trace — there is
	// no simulation to observe). Tracing never changes results: the engine
	// contract from the trace layer is that traced runs are cycle-identical
	// to untraced ones, so cached metrics stay byte-identical either way.
	Trace *trace.Options
	// TraceSink receives each executed simulation's recorder, keyed by the
	// cell's store key; a canceled run's recorder holds its events up to the
	// cancel. Called from whichever goroutine ran the simulation, after the
	// metrics are final but before they are published; must not block for
	// long.
	TraceSink func(storeKey string, rec *trace.Recorder)
	// Progress, if set, is called after every batch cell completes with the
	// running done count and the batch total — the hook a sweep CLI uses for
	// live progress and ETA lines. Invoked from worker goroutines; must be
	// safe for concurrent use.
	Progress func(done, total int)

	// cache, errCache and inflight are keyed by Cell.ID; jobs holds each
	// job's cell and store key (jobCell).
	mu       sync.Mutex
	cache    map[string]*stats.Metrics
	errCache map[string]error
	inflight map[string]*inflightRun
	jobs     map[Job]keyedCell
	optC     map[string]int
	errs     []error
	simCount int // simulations actually executed (not cache or store hits)
	diskHits int // results served from the on-disk store

	// simulate replaces runJob in tests (counting stubs, failure injection).
	simulate func(context.Context, Cell) (*stats.Metrics, error)
}

// inflightRun is the singleflight entry shared by concurrent callers of one
// cell; done is closed once m/err are final.
type inflightRun struct {
	done chan struct{}
	m    *stats.Metrics
	err  error
}

// NewRunner returns a runner whose jobs expand at the given scale.
func NewRunner(scale float64) *Runner {
	return &Runner{
		Scale:    scale,
		Seed:     42,
		cache:    make(map[string]*stats.Metrics),
		errCache: make(map[string]error),
		inflight: make(map[string]*inflightRun),
		jobs:     make(map[Job]keyedCell),
		optC:     make(map[string]int),
	}
}

// Cell is one simulation: a benchmark, built at a workload scale and seed,
// run on one machine. Bench, Scale, Seed and Config are exactly the store
// key's inputs; Desc labels the cell's store record and log lines and is not
// part of its identity.
type Cell struct {
	Bench  string
	Scale  float64
	Seed   uint64
	Config gpu.Config
	Desc   string
}

// Validate reports whether the cell can run (workloads.Validate, then
// gpu.Config.Validate). Each edge calls it once per cell, before keying it.
func (c Cell) Validate() error {
	if err := workloads.Validate(c.Bench, workloads.Params{Scale: c.Scale, Seed: c.Seed}); err != nil {
		return err
	}
	return c.Config.Validate()
}

// StoreKey is the cell's content address in the on-disk store (store.Key).
// The key leaves out the fields that cannot change a completed result, the
// cost bound CycleBudget among them, so budgeted and unbudgeted runs of one
// cell share a record: only complete results are ever persisted, and a
// complete result satisfies both.
func (c Cell) StoreKey() string { return store.Key(c.Config, c.Bench, c.Scale, c.Seed) }

// ID is the cell's identity: its store key, suffixed "-b<cycles>" when a
// cycle budget bounds the run. A budgeted run is a different ask — its
// truncated result is a different artifact — that still shares the complete
// cell's stored record. A serving front end hands the ID out as the run id,
// valid across processes for as long as the store schema stands.
func (c Cell) ID() string { return c.idFor(c.StoreKey()) }

// idFor is ID given the cell's already-computed store key.
func (c Cell) idFor(storeKey string) string {
	if c.Config.CycleBudget == 0 {
		return storeKey
	}
	return storeKey + "-b" + strconv.FormatUint(uint64(c.Config.CycleBudget), 10)
}

// Job is the experiments' shorthand for a cell on the paper's machines;
// Cell expands it at a workload scale and seed.
type Job struct {
	// Proto is the cell's protocol identity (gpu.Config.Protocol): a preset
	// name, fglock, or a non-preset matrix point as gpu.ProtocolOf spells it.
	Proto gpu.Protocol
	Bench string
	Conc  int
	// Cores: 0 means the default 15-core machine; 56 selects the scaled one.
	Cores int
	// GETM metadata overrides for the Fig 14 sweeps (0 = default).
	MetaEntries int
	Granularity int
	// CycleBudget bounds the simulation's cost: the run stops after this
	// many simulated cycles and returns partial metrics tagged Truncated
	// (0 = no bound). Truncated results are never cached or persisted — the
	// budget bounds what a request may cost, it is not part of the cell's
	// identity on disk, so a budgeted request is still satisfied by a stored
	// complete result at disk-read cost.
	CycleBudget uint64
}

// desc is the job's cell description: the label of its store record and its
// log lines. The trailing |s0 stays: cmd/benchdiff pairs records by
// description across store dirs.
func (j Job) desc() string {
	return fmt.Sprintf("%s|%s|c%d|n%d|m%d|g%d|b%d|s0",
		j.Proto, j.Bench, j.Conc, j.Cores, j.MetaEntries, j.Granularity, j.CycleBudget)
}

// Cell expands the job into the cell it describes at a workload scale and
// seed.
func (j Job) Cell(scale float64, seed uint64) Cell {
	return Cell{Bench: j.Bench, Scale: scale, Seed: seed, Config: j.Config(), Desc: j.desc()}
}

// Config builds the machine configuration the job describes. The public
// API builds its runs through it too, so a cell has one configuration
// whichever edge asked for it. A nonzero override is set as given.
func (j Job) Config() gpu.Config {
	cfg := gpu.DefaultConfig(j.Proto)
	if j.Cores == 56 {
		cfg = gpu.ScaledConfig(j.Proto)
	} else if j.Cores != 0 {
		cfg.Cores = j.Cores
	}
	cfg.Core.MaxTxWarps = j.Conc
	if j.MetaEntries != 0 {
		cfg.GETM.PreciseEntries = j.MetaEntries
	}
	if j.Granularity != 0 {
		cfg.GETM.GranularityBytes = j.Granularity
	}
	cfg.CycleBudget = sim.Cycle(j.CycleBudget)
	return cfg
}

// RunE simulates the job's cell and returns its metrics or the simulation
// error. Results (including errors — simulations are deterministic, so a
// failing cell fails identically on retry) are cached by Cell.ID; concurrent
// calls for one cell share a single simulation. With a Store attached, a
// miss in memory consults the disk tier before simulating (when StoreReuse
// is set), and every completed simulation is persisted. A canceled run
// returns its partial metrics, tagged Truncated, alongside an error
// matching gpu.ErrCanceled. Canceled and truncated runs are cached in
// neither tier.
func (r *Runner) RunE(j Job) (*stats.Metrics, error) {
	c, storeKey := r.jobCell(j)
	return r.runE(nil, c, storeKey, nil)
}

// RunCell is RunE for a cell, with a per-call context: this call's
// simulation (and its wait on a shared in-flight simulation) is bounded by
// ctx instead of the runner-wide Ctx. It is the entry point for
// request-scoped deadlines in a serving stack: each request carries its own
// deadline while still sharing one simulation with identical concurrent
// requests. A cancellation of a per-call context is returned to the caller
// (matching gpu.ErrCanceled, with the run's partial metrics when this call
// ran it) but — unlike a runner-wide Ctx cancellation — not recorded in
// Err, which would otherwise grow without bound in a long-lived server.
//
// RunCell is the one way a single simulation runs: getm-sim, getm.Run,
// getm-bench's traced reference run, getm-sweep and getm-serve all call it.
func (r *Runner) RunCell(ctx context.Context, c Cell) (*stats.Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return r.runE(ctx, c, c.StoreKey(), nil)
}

// cell expands a job at the runner's scale and seed. A Policy pin replaces
// the protocol of every transactional job first, so one cell has one
// identity whether its policy came from the job or from the runner.
func (r *Runner) cell(j Job) Cell {
	if !r.Policy.IsZero() && j.Proto != gpu.ProtoFGLock {
		j.Proto = gpu.ProtocolOf(r.Policy)
	}
	return j.Cell(r.Scale, r.Seed)
}

// keyedCell is a cell with its store key.
type keyedCell struct {
	cell     Cell
	storeKey string
}

// jobCell expands the job into its cell and store key, keying each job once:
// the runner's Scale, Seed and Policy are fixed before the first run, so a
// job names one cell for the runner's life, and the experiments read the
// same jobs back many times.
func (r *Runner) jobCell(j Job) (Cell, string) {
	r.mu.Lock()
	kc, ok := r.jobs[j]
	r.mu.Unlock()
	if !ok {
		c := r.cell(j)
		kc = keyedCell{c, c.StoreKey()}
		r.mu.Lock()
		r.jobs[j] = kc
		r.mu.Unlock()
	}
	return kc.cell, kc.storeKey
}

// runE is the shared two-tier cached singleflight path for a cell and its
// store key. ctx != nil marks a per-call context (RunCell); nil falls back
// to the runner-wide Ctx. A non-nil kernels is the RunCells batch's kernel
// table; nil builds the kernel for this run alone.
func (r *Runner) runE(ctx context.Context, cell Cell, storeKey string, kernels *kernelTable) (*stats.Metrics, error) {
	key := cell.idFor(storeKey)
	perCall := ctx != nil
	r.mu.Lock()
	if m, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return m, nil
	}
	if err, ok := r.errCache[key]; ok {
		r.mu.Unlock()
		return nil, err
	}
	if c, ok := r.inflight[key]; ok {
		// Another goroutine is simulating this cell; wait and share. A
		// per-call context may stop waiting early — the shared simulation
		// keeps running for the callers still interested in it.
		r.mu.Unlock()
		if perCall {
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("harness: %s: %w", cell.Desc,
					errors.Join(gpu.ErrCanceled, context.Cause(ctx)))
			}
			return c.m, c.err
		}
		<-c.done
		return c.m, c.err
	}
	c := &inflightRun{done: make(chan struct{})}
	r.inflight[key] = c
	sim := r.simulate
	if !perCall {
		ctx = r.Ctx
	}
	r.mu.Unlock()

	// Disk tier: a verified record is as good as having simulated. Corrupt
	// or truncated records fail verification inside Get and read as misses.
	fromDisk := false
	if r.Store != nil && r.StoreReuse {
		if m, ok := r.Store.Get(storeKey); ok {
			c.m, fromDisk = m, true
		}
	}
	if !fromDisk {
		if ctx == nil {
			ctx = context.Background()
		}
		if sim != nil {
			c.m, c.err = sim(ctx, cell)
		} else {
			var rec *trace.Recorder
			c.m, rec, c.err = r.runJob(ctx, cell, kernels)
			if rec != nil && r.TraceSink != nil {
				r.TraceSink(storeKey, rec)
			}
		}
		if c.err == nil && c.m != nil && !c.m.Truncated {
			switch {
			case r.Persist != nil:
				// Write-behind: the hook accumulates the record and flushes
				// on its own schedule; the simulation path never waits on
				// disk. Durability until the next flush is the hook's
				// contract (e.g. a final flush inside a graceful drain).
				if err := r.Persist(storeKey, cell.Desc, c.m); err != nil && r.Verbose != nil {
					r.Verbose("warning: " + err.Error())
				}
			case r.Store != nil:
				// Persist before publishing; a crash after this point costs
				// nothing on resume. Put is atomic, so a concurrent process
				// writing the same (deterministic) record is harmless.
				if err := r.Store.Put(storeKey, cell.Desc, c.m); err != nil && r.Verbose != nil {
					r.Verbose("warning: " + err.Error())
				}
			}
		}
	}

	canceled := c.err != nil && errors.Is(c.err, gpu.ErrCanceled)
	truncated := c.err == nil && c.m != nil && c.m.Truncated
	r.mu.Lock()
	delete(r.inflight, key)
	switch {
	case canceled:
		// Not cached: the cell never completed, and a retry with a live
		// context (or a resumed process) must actually run it. Runner-wide
		// cancellations are recorded in errs so Err reports them; per-call
		// ones belong to their caller alone.
		c.err = fmt.Errorf("harness: %s: %w", cell.Desc, c.err)
		if !perCall {
			r.errs = append(r.errs, c.err)
		}
	case c.err != nil:
		c.err = fmt.Errorf("harness: %s: %w", cell.Desc, c.err)
		r.errCache[key] = c.err
		r.errs = append(r.errs, c.err)
	case truncated:
		// A budgeted run cut short: the partial metrics go to this call's
		// sharers only. Neither tier caches them — the cell has no complete
		// result yet.
		r.simCount++
	default:
		r.cache[key] = c.m
		if fromDisk {
			r.diskHits++
		} else {
			r.simCount++
		}
	}
	r.mu.Unlock()
	close(c.done)

	if r.Verbose != nil {
		switch {
		case c.err != nil:
			r.Verbose("FAILED " + cell.Desc + ": " + c.err.Error())
		case fromDisk:
			r.Verbose(fmt.Sprintf("load %-40s %12d cycles (store)", cell.Desc, c.m.TotalCycles))
		case truncated:
			r.Verbose(fmt.Sprintf("part %-40s %12d cycles (truncated)", cell.Desc, c.m.TotalCycles))
		default:
			r.Verbose(fmt.Sprintf("ran %-40s %12d cycles", cell.Desc, c.m.TotalCycles))
		}
	}
	return c.m, c.err
}

// Lookup probes both cache tiers for the cell's completed result without
// ever simulating: the in-memory tier first, then (with StoreReuse) the disk
// store, promoting a disk hit into memory. It is the fast path a serving
// front end takes before spending a queue slot — repeat traffic for a
// completed cell is O(map lookup) or O(disk read), never O(simulation).
func (r *Runner) Lookup(cell Cell) (*stats.Metrics, bool) {
	storeKey := cell.StoreKey()
	key := cell.idFor(storeKey)
	r.mu.Lock()
	if m, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return m, true
	}
	r.mu.Unlock()
	if r.Store == nil || !r.StoreReuse {
		return nil, false
	}
	m, ok := r.Store.Get(storeKey)
	if !ok {
		return nil, false
	}
	r.mu.Lock()
	if prev, dup := r.cache[key]; dup {
		// Raced with a concurrent fill; keep the published result.
		m = prev
	} else {
		r.cache[key] = m
		r.diskHits++
	}
	r.mu.Unlock()
	return m, true
}

// StoreKey is the content address of the job's cell at the runner's scale,
// seed and policy pin.
func (r *Runner) StoreKey(j Job) string { return r.cell(j).StoreKey() }

// Simulated returns the number of simulations this process actually executed
// — cache and store hits excluded. It is the instrumentation behind the
// resume guarantee: a resumed sweep must simulate only the missing cells.
func (r *Runner) Simulated() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simCount
}

// StoreHits returns the number of results served from the on-disk store.
func (r *Runner) StoreHits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.diskHits
}

// Run simulates the job (cached, thread-safe). On simulation failure it
// records the error — retrievable via Err — and returns zero-valued metrics
// so table assembly degrades instead of crashing; callers that need to react
// to individual failures should use RunE.
func (r *Runner) Run(j Job) *stats.Metrics {
	m, err := r.RunE(j)
	if err != nil {
		return new(stats.Metrics)
	}
	return m
}

// Err returns every simulation error recorded so far (joined), or nil.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return errors.Join(r.errs...)
}

// OptimalConc searches ConcLevels for the setting minimizing total runtime
// (the paper tunes concurrency per protocol and benchmark, Table IV). Safe
// for concurrent use: racing searches run the same deterministic sweep
// (individual simulations are deduplicated by RunE) and store the same
// answer.
func (r *Runner) OptimalConc(proto gpu.Protocol, bench string) int {
	key := string(proto) + "|" + bench
	r.mu.Lock()
	if c, ok := r.optC[key]; ok {
		r.mu.Unlock()
		return c
	}
	r.mu.Unlock()

	best, bestCycles := ConcLevels[0], ^uint64(0)
	for _, c := range ConcLevels {
		m, err := r.RunE(Job{Proto: proto, Bench: bench, Conc: c})
		if err != nil {
			continue // recorded in Err(); pick among the levels that ran
		}
		if m.TotalCycles < bestCycles {
			best, bestCycles = c, m.TotalCycles
		}
	}
	r.mu.Lock()
	r.optC[key] = best
	r.mu.Unlock()
	return best
}

// RunOptimal simulates proto on bench at its optimal concurrency.
func (r *Runner) RunOptimal(proto gpu.Protocol, bench string) *stats.Metrics {
	if proto == gpu.ProtoFGLock {
		return r.Run(Job{Proto: proto, Bench: bench})
	}
	return r.Run(Job{Proto: proto, Bench: bench, Conc: r.OptimalConc(proto, bench)})
}

// cached reports whether the cell with this ID has a cached result or
// failure.
func (r *Runner) cached(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.cache[id]
	if !ok {
		_, ok = r.errCache[id]
	}
	return ok
}

// cacheSize returns the number of cached results (tests).
func (r *Runner) cacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// Report is a structured experiment result: one or more tables.
type Report struct {
	ID     string
	Title  string
	Tables []*report.Table
}

func newReport(id, title string, tables ...*report.Table) *Report {
	return &Report{ID: id, Title: title, Tables: tables}
}

// String renders the report as aligned text.
func (rep *Report) String() string { return rep.Render(report.FormatText) }

// Render renders every table in the requested format.
func (rep *Report) Render(f report.Format) string {
	out := ""
	for _, t := range rep.Tables {
		out += t.Render(f) + "\n"
	}
	return out
}

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) *Report
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "WarpTM-LL vs WarpTM-EL tx cycles vs concurrency (HT-H)", Fig3},
		{"fig4", "Lazy vs eager WarpTM vs fine-grained locks", Fig4},
		{"fig10", "Transaction-only exec+wait time, normalized to WarpTM", Fig10},
		{"fig11", "Total execution time normalized to FGLock", Fig11},
		{"fig12", "Crossbar traffic normalized to WarpTM", Fig12},
		{"fig13", "GETM metadata-table mean access cycles", Fig13},
		{"fig14", "GETM sensitivity to metadata table size and granularity", Fig14},
		{"fig15", "Maximum stall-buffer occupancy", Fig15},
		{"fig16", "Mean stalled requests per address", Fig16},
		{"fig17", "Scalability: 15-core vs 56-core", Fig17},
		{"table4", "Optimal concurrency and abort rates", Table4},
		{"table5", "Area and power overheads (CACTI model)", Table5},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Benchmarks returns the benchmark list (paper order).
func Benchmarks() []string { return workloads.Names() }

// gmean of a map's values, iterated in sorted-key order so the result is
// deterministic (GMean itself is order-insensitive up to float rounding).
func gmeanOf(vals map[string]float64) float64 {
	var vs []float64
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vs = append(vs, vals[k])
	}
	return stats.GMean(vs)
}
