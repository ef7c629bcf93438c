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
// (nil if every job ran clean).
func Precompute(r *Runner, workers int) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	var jobs []Job
	for _, b := range Benchmarks() {
		for _, p := range []gpu.Protocol{gpu.ProtoWarpTM, gpu.ProtoWarpTMEL, gpu.ProtoEAPG, gpu.ProtoGETM} {
			for _, c := range ConcLevels {
				jobs = append(jobs, Job{Proto: p, Bench: b, Conc: c})
			}
		}
		jobs = append(jobs, Job{Proto: gpu.ProtoFGLock, Bench: b})
	}

	err1 := r.runParallel(jobs, workers)

	// Second wave: jobs that depend on the optimal concurrency (now cached).
	var wave2 []Job
	for _, b := range Benchmarks() {
		getmConc := r.OptimalConc(gpu.ProtoGETM, b)
		for _, entries := range []int{2048, 4096, 8192} {
			wave2 = append(wave2, Job{Proto: gpu.ProtoGETM, Bench: b, Conc: getmConc, MetaEntries: entries})
		}
		for _, g := range []int{16, 32, 64, 128} {
			wave2 = append(wave2, Job{Proto: gpu.ProtoGETM, Bench: b, Conc: getmConc, Granularity: g})
		}
		for _, p := range []gpu.Protocol{gpu.ProtoWarpTM, gpu.ProtoEAPG, gpu.ProtoGETM} {
			wave2 = append(wave2, Job{Proto: p, Bench: b, Conc: r.OptimalConc(p, b), Cores: 56})
		}
	}
	err2 := r.runParallel(wave2, workers)
	return errors.Join(err1, err2)
}

// runParallel executes the batch on a worker pool, deduplicated both against
// the cache and within the batch (overrides that match the defaults can give
// several jobs the same key). Every simulation goes through runE, so the
// singleflight map also dedupes against concurrent outside callers, and
// every simulation takes its kernel from the batch's kernel table. Worker
// failures are collected — never panicked — and returned joined.
func (r *Runner) runParallel(jobs []Job, workers int) error {
	seen := make(map[string]bool, len(jobs))
	var pending []Job
	for _, j := range jobs {
		k := r.norm(j).key()
		if seen[k] || r.cached(k) {
			continue
		}
		seen[k] = true
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return nil
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	kernels := newKernelTable(pending, r.buildKernel)

	var wg sync.WaitGroup
	var done atomic.Int64
	total := len(pending)
	errCh := make(chan error, len(pending))
	ch := make(chan Job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				if _, err := r.runE(nil, j, kernels); err != nil {
					errCh <- err
				}
				kernels.done(j)
				if r.Progress != nil {
					r.Progress(int(done.Add(1)), total)
				}
			}
		}()
	}
	for _, j := range pending {
		ch <- j
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

// kernelTable shares one runParallel batch's kernels: each (bench, variant)
// kernel is built once, on first use, and every job of the batch that needs
// it runs it (gpu.Kernel's contract makes that safe on several machines at
// once). An entry counts the batch's jobs that have not finished and is
// dropped when the last of them does, so the table holds only the kernels
// the rest of the batch still needs. Outside a batch, runs build their own.
type kernelTable struct {
	build   func(Job) (*gpu.Kernel, error)
	mu      sync.Mutex
	entries map[kernelKey]*kernelEntry
}

type kernelKey struct {
	bench   string
	variant workloads.Variant
}

type kernelEntry struct {
	once sync.Once
	k    *gpu.Kernel
	err  error
	jobs int // batch jobs that have not finished
}

func newKernelTable(jobs []Job, build func(Job) (*gpu.Kernel, error)) *kernelTable {
	t := &kernelTable{build: build, entries: make(map[kernelKey]*kernelEntry)}
	for _, j := range jobs {
		key := kernelKeyOf(j)
		e := t.entries[key]
		if e == nil {
			e = &kernelEntry{}
			t.entries[key] = e
		}
		e.jobs++
	}
	return t
}

func kernelKeyOf(j Job) kernelKey { return kernelKey{j.Bench, variantOf(j)} }

// kernel returns the job's kernel, building it the first time any job of
// the batch asks. A build error is returned to every job that asks.
func (t *kernelTable) kernel(j Job) (*gpu.Kernel, error) {
	t.mu.Lock()
	e := t.entries[kernelKeyOf(j)]
	t.mu.Unlock()
	e.once.Do(func() { e.k, e.err = t.build(j) })
	return e.k, e.err
}

// done records that job j of the batch has finished, dropping its kernel
// once no unfinished job of the batch needs it.
func (t *kernelTable) done(j Job) {
	key := kernelKeyOf(j)
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	e.jobs--
	if e.jobs == 0 {
		delete(t.entries, key)
	}
}

// variantOf is the workload variant a job runs: fglock runs the
// fine-grained-lock kernel, every TM protocol the transactional one.
func variantOf(j Job) workloads.Variant {
	if j.Proto == gpu.ProtoFGLock {
		return workloads.FGLock
	}
	return workloads.TM
}

// buildKernel builds the job's kernel at the runner's scale and seed.
func (r *Runner) buildKernel(j Job) (*gpu.Kernel, error) {
	return workloads.Build(j.Bench, variantOf(j), workloads.Params{Scale: r.Scale, Seed: r.Seed})
}

// runJob executes one simulation without touching shared state, on the
// batch's shared kernel when kernels is non-nil and on a kernel of its own
// otherwise. A kernel that cannot be built (an unknown benchmark) is the
// run's error. A ctx cancel stops the engine within one chunk of simulated
// cycles (gpu.RunContext). A non-nil Runner.Trace attaches a trace
// recorder, which rides back so the caller can key it by run id; tracing is
// cycle-neutral by the trace layer's contract, so the metrics are the same
// either way.
func (r *Runner) runJob(ctx context.Context, j Job, kernels *kernelTable) (*stats.Metrics, *trace.Recorder, error) {
	var k *gpu.Kernel
	var err error
	if kernels != nil {
		k, err = kernels.kernel(j)
	} else {
		k, err = r.buildKernel(j)
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := j.Config()
	if r.Trace != nil {
		o := *r.Trace
		cfg.Trace = &o
	}
	res, err := gpu.RunContext(ctx, cfg, k)
	if err != nil {
		return nil, nil, err
	}
	return res.Metrics, res.Trace, nil
}
