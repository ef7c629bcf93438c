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
// several jobs the same key). Every simulation goes through RunE, so the
// singleflight map also dedupes against concurrent outside callers. Worker
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
				if _, err := r.RunE(j); err != nil {
					errCh <- err
				}
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

// runJob executes one simulation without touching shared state. A ctx cancel
// stops the engine within one chunk of simulated cycles (gpu.RunContext).
// A non-nil opts attaches a trace recorder, which rides back so the caller
// can key it by run id; tracing is cycle-neutral by the trace layer's
// contract, so the metrics are the same either way.
func runJob(ctx context.Context, j Job, scale float64, seed uint64, opts *trace.Options) (*stats.Metrics, *trace.Recorder, error) {
	variant := workloads.TM
	if j.Proto == gpu.ProtoFGLock {
		variant = workloads.FGLock
	}
	k := workloads.MustBuild(j.Bench, variant, workloads.Params{Scale: scale, Seed: seed})
	cfg := j.Config()
	if opts != nil {
		o := *opts
		cfg.Trace = &o
	}
	res, err := gpu.RunContext(ctx, cfg, k)
	if err != nil {
		return nil, nil, err
	}
	return res.Metrics, res.Trace, nil
}
