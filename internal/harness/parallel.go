package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/trace"
	"getm/internal/workloads"
)

// Precompute fills the runner's cache for the standard experiment grid —
// every (protocol, benchmark, concurrency) triple plus the Fig 14 and Fig 17
// variations — using a worker pool. Each simulation is single-threaded and
// fully deterministic, so running them on parallel workers changes nothing
// except wall-clock time; the experiments then assemble their tables from
// cache hits. It returns the simulation failures from both waves, joined
// (nil if every cell ran clean).
func Precompute(r *Runner, workers int) error {
	var cells []Cell
	var keys []string
	add := func(j Job) {
		c, key := r.jobCell(j)
		cells, keys = append(cells, c), append(keys, key)
	}
	for _, b := range Benchmarks() {
		for _, p := range []gpu.Protocol{gpu.ProtoWarpTM, gpu.ProtoWarpTMEL, gpu.ProtoEAPG, gpu.ProtoGETM} {
			for _, c := range ConcLevels {
				add(Job{Proto: p, Bench: b, Conc: c})
			}
		}
		add(Job{Proto: gpu.ProtoFGLock, Bench: b})
	}
	err1 := r.runCells(cells, keys, workers)

	// Second wave: cells that depend on the optimal concurrency (now cached).
	cells, keys = nil, nil
	for _, b := range Benchmarks() {
		getmConc := r.OptimalConc(gpu.ProtoGETM, b)
		for _, entries := range []int{2048, 4096, 8192} {
			add(Job{Proto: gpu.ProtoGETM, Bench: b, Conc: getmConc, MetaEntries: entries})
		}
		for _, g := range []int{16, 32, 64, 128} {
			add(Job{Proto: gpu.ProtoGETM, Bench: b, Conc: getmConc, Granularity: g})
		}
		for _, p := range []gpu.Protocol{gpu.ProtoWarpTM, gpu.ProtoEAPG, gpu.ProtoGETM} {
			add(Job{Proto: p, Bench: b, Conc: r.OptimalConc(p, b), Cores: 56})
		}
	}
	err2 := r.runCells(cells, keys, workers)
	return errors.Join(err1, err2)
}

// RunCells simulates a batch of cells on a worker pool (workers <= 0 means
// one per CPU), deduplicated both against the cache and within the batch by
// Cell.ID — overrides that match the defaults give two jobs one cell, and
// that cell runs once. Every simulation goes through the singleflight path,
// so it also dedupes against concurrent outside callers, and takes its
// kernel from the batch's kernel table. Worker failures are collected —
// never panicked — and returned joined; each is also cached (or, for a
// cancellation, not) exactly as RunCell would, so reading a cell back after
// the batch is a cache hit or its cached failure.
func (r *Runner) RunCells(cells []Cell, workers int) error {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.StoreKey()
	}
	return r.runCells(cells, keys, workers)
}

// runCells is RunCells given each cell's store key, keys[i] for cells[i].
func (r *Runner) runCells(cells []Cell, keys []string, workers int) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	seen := make(map[string]bool, len(cells))
	var pending []Cell
	var pendingKeys []string
	for i, c := range cells {
		id := c.idFor(keys[i])
		if seen[id] || r.cached(id) {
			continue
		}
		seen[id] = true
		pending, pendingKeys = append(pending, c), append(pendingKeys, keys[i])
	}
	if len(pending) == 0 {
		return nil
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	kernels := newKernelTable(pending, buildKernel)

	var wg sync.WaitGroup
	var done atomic.Int64
	total := len(pending)
	errCh := make(chan error, len(pending))
	ch := make(chan int) // indices into pending
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				c := pending[i]
				if _, err := r.runE(nil, c, pendingKeys[i], kernels); err != nil {
					errCh <- err
				}
				kernels.done(c)
				if r.Progress != nil {
					r.Progress(int(done.Add(1)), total)
				}
			}
		}()
	}
	for i := range pending {
		ch <- i
	}
	close(ch)
	wg.Wait()
	close(errCh)

	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// kernelTable shares one RunCells batch's kernels: each kernel is built
// once, on first use, and every cell of the batch that needs it runs it
// (gpu.Kernel's contract makes that safe on several machines at once). An
// entry counts the batch's cells that have not finished and is dropped when
// the last of them does, so the table holds only the kernels the rest of the
// batch still needs. Outside a batch, runs build their own.
type kernelTable struct {
	build   func(Cell) (*gpu.Kernel, error)
	mu      sync.Mutex
	entries map[kernelKey]*kernelEntry
}

// kernelKey is everything a kernel is built from.
type kernelKey struct {
	bench   string
	variant workloads.Variant
	scale   float64
	seed    uint64
}

type kernelEntry struct {
	once  sync.Once
	k     *gpu.Kernel
	err   error
	cells int // batch cells that have not finished
}

func newKernelTable(cells []Cell, build func(Cell) (*gpu.Kernel, error)) *kernelTable {
	t := &kernelTable{build: build, entries: make(map[kernelKey]*kernelEntry)}
	for _, c := range cells {
		key := kernelKeyOf(c)
		e := t.entries[key]
		if e == nil {
			e = &kernelEntry{}
			t.entries[key] = e
		}
		e.cells++
	}
	return t
}

func kernelKeyOf(c Cell) kernelKey { return kernelKey{c.Bench, variantOf(c), c.Scale, c.Seed} }

// kernel returns the cell's kernel, building it the first time any cell of
// the batch asks. A build error is returned to every cell that asks.
func (t *kernelTable) kernel(c Cell) (*gpu.Kernel, error) {
	t.mu.Lock()
	e := t.entries[kernelKeyOf(c)]
	t.mu.Unlock()
	e.once.Do(func() { e.k, e.err = t.build(c) })
	return e.k, e.err
}

// done records that cell c of the batch has finished, dropping its kernel
// once no unfinished cell of the batch needs it.
func (t *kernelTable) done(c Cell) {
	key := kernelKeyOf(c)
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	e.cells--
	if e.cells == 0 {
		delete(t.entries, key)
	}
}

// variantOf is the workload variant a cell runs: fglock runs the
// fine-grained-lock kernel, every TM protocol the transactional one.
func variantOf(c Cell) workloads.Variant {
	if c.Config.Protocol == gpu.ProtoFGLock {
		return workloads.FGLock
	}
	return workloads.TM
}

// buildKernel builds the cell's kernel at its scale and seed.
func buildKernel(c Cell) (*gpu.Kernel, error) {
	return workloads.Build(c.Bench, variantOf(c), workloads.Params{Scale: c.Scale, Seed: c.Seed})
}

// runJob executes one simulation without touching shared state, on the
// batch's shared kernel when kernels is non-nil and on a kernel of its own
// otherwise. It is the one place a kernel is built and a machine run. A
// kernel that cannot be built (an unknown benchmark, a bad scale) is the
// run's error. A ctx cancel stops the engine within one chunk of simulated
// cycles (gpu.RunContext) and returns the partial metrics, tagged
// Truncated, and the recorder alongside the error. A non-nil Runner.Trace
// attaches a trace recorder, which rides back so the caller can key it by
// store key; tracing is cycle-neutral by the trace layer's contract, so the
// metrics are the same either way.
func (r *Runner) runJob(ctx context.Context, c Cell, kernels *kernelTable) (*stats.Metrics, *trace.Recorder, error) {
	var k *gpu.Kernel
	var err error
	if kernels != nil {
		k, err = kernels.kernel(c)
	} else {
		k, err = buildKernel(c)
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := c.Config
	if r.Trace != nil {
		o := *r.Trace
		cfg.Trace = &o
	}
	res, err := gpu.RunContext(ctx, cfg, k)
	if res == nil {
		return nil, nil, err
	}
	return res.Metrics, res.Trace, err
}
