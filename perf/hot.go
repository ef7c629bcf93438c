package main

import (
	"fmt"
	"os"
	"time"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/trace"
	"getm/internal/workloads"
)

// The hot workloads time single simulations of one protocol on four
// benchmarks with different conflict structure: ht-h (one hot bucket chain),
// atm (random pairwise transfers), ap (read-mostly mining) and cl (neighbour
// updates), at transactional concurrency 8, with hotSeeds input seeds each.
// eager-hot runs GETM, where the validation units, metadata tables and
// stall buffers of internal/core do the work. lazy-hot runs WarpTM, which
// bypasses core and validates by value in internal/warptm. A change to one
// TM layer should move one of the pair and leave the other unchanged.
var hotBenches = []string{"ht-h", "atm", "ap", "cl"}

const (
	hotScale = 1.0
	hotSeeds = 10
	hotConc  = 8
	// hotChunk is how many cells run between two host probes, about a third
	// of a second.
	hotChunk = 8
)

type hotCell struct {
	key    string // golden key
	kernel *gpu.Kernel
	lat    series // host time of each timed (or, traced, profiled) run
}

type hotRun struct {
	o     options
	r     *result
	cells []*hotCell
}

// hotKey names a hot cell in goldens.json.
func hotKey(workload, bench string, scale float64, seed uint64) string {
	return fmt.Sprintf("%s %s scale=%g seed=%d", workload, bench, scale, seed)
}

func hotConfig(proto gpu.Protocol) gpu.Config {
	cfg := gpu.DefaultConfig(proto)
	cfg.Core.MaxTxWarps = hotConc
	return cfg
}

// cellSeed derives the i-th input seed of a run from its -seed.
func cellSeed(seed uint64, i int) uint64 {
	x := seed<<8 | uint64(i)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x^x>>31)%1_000_000 + 1
}

func runHot(o options, name string, proto gpu.Protocol) (*result, error) {
	r := newResult(name)
	scale, seeds := hotScale, hotSeeds
	if o.tiny {
		scale, seeds = 0.05, 1
	}
	var buildMS []float64
	cells, setups, err := timeSetup(o, func() ([]*hotCell, error) {
		var cells []*hotCell
		for _, b := range hotBenches {
			for i := 0; i < seeds; i++ {
				seed := cellSeed(o.seed, i)
				t0 := time.Now()
				k, err := workloads.Build(b, workloads.TM, workloads.Params{Scale: scale, Seed: seed})
				if err != nil {
					return nil, err
				}
				buildMS = append(buildMS, ms(time.Since(t0)))
				cells = append(cells, &hotCell{key: hotKey(name, b, scale, seed), kernel: k})
			}
		}
		return cells, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	h := &hotRun{o: o, r: r, cells: cells}
	cfg := hotConfig(proto)

	// Warm up: one untimed run per benchmark grows the heap and fills the
	// host caches before anything is timed.
	for i := 0; i < len(cells); i += seeds {
		h.sim(cells[i], cfg)
	}

	if !o.trace {
		probe := newHostProbe(1, nil)
		a0 := allocated()
		chunks := (len(cells) + hotChunk - 1) / hotChunk
		run, err := probed(o.window, probe, chunks, func(i int) time.Duration {
			lo := i % chunks * hotChunk
			t0 := time.Now()
			for _, c := range cells[lo:min(lo+hotChunk, len(cells))] {
				dt, _ := h.sim(c, cfg)
				c.lat.add(ms(dt), i)
			}
			return time.Since(t0)
		})
		if err != nil {
			return nil, err
		}
		groups := make([]*series, len(cells))
		for i, c := range cells {
			groups[i] = &c.lat
		}
		return r, r.endToEnd(groups, run, allocated()-a0, setups, probe)
	}

	// Traced run, phase 1: untraced passes under the CPU profiler.
	half := o.window / 2
	err = profileCPU(r, o.workdir, func() error {
		h.passes(half, cfg, func(c *hotCell, dt time.Duration, _ *gpu.Result) { c.lat.add(ms(dt), 0) })
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("workloads.build_ms_p50", quantile(buildMS, 0.5), len(buildMS))

	// Phase 2: untraced passes alternate with passes under the trace
	// recorder. Tracing is cycle-neutral, so the metrics digests must not
	// change. The first traced pass counts the events and the
	// simulated-clock counters.
	tcfg := cfg
	tcfg.Trace = &trace.Options{RingSize: traceRing}
	var ev eventCounts
	totals := stats.NewMetrics()
	var passesU, passesT int
	var wallU, cpuU time.Duration
	traceOverhead(r, half, func() (int, time.Duration) {
		c0 := cpuTime()
		n, wall := h.passes(0, cfg, func(*hotCell, time.Duration, *gpu.Result) {})
		passesU, wallU, cpuU = passesU+n, wallU+wall, cpuU+cpuTime()-c0
		return n * len(cells), wall
	}, func() (int, time.Duration) {
		n, wall := h.passes(0, tcfg, func(_ *hotCell, _ time.Duration, res *gpu.Result) {
			if res != nil && passesT == 0 {
				ev.add(res.Trace)
				totals.Merge(res.Metrics)
			}
		})
		passesT += n
		return n * len(cells), wall
	})
	recordSimCounts(r, totals)
	ev.record(r, cpuU/time.Duration(passesU))
	r.set("gpu.kcycles_per_s", float64(totals.TotalCycles)*float64(passesU)/wallU.Seconds()/1e3, passesU*len(cells))

	// The parallel engine's data point: each cell once with two shards
	// against its median serial time.
	scfg := cfg
	scfg.Shards = 2
	if gpu.Shardable(scfg) {
		var sharded, serial float64
		for _, c := range cells {
			dt, _ := h.sim(c, scfg)
			sharded += ms(dt)
			serial += quantile(c.lat.ms, 0.5)
		}
		r.set("gpu.sharded_over_serial", sharded/serial, len(cells))
	}
	return r, nil
}

// sim runs one cell and checks the result: gpu.Run applies the kernel's
// verifier and the protocol invariants, and a serial run's metrics digest
// must match the cell's golden (or its first run). Sharded runs form their
// own semantics class, so their digest is not compared.
func (h *hotRun) sim(c *hotCell, cfg gpu.Config) (time.Duration, *gpu.Result) {
	t0 := time.Now()
	res, err := gpu.Run(cfg, c.kernel)
	dt := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %s: %v\n", c.key, err)
		h.r.tally(false)
		return dt, nil
	}
	ok := true
	if cfg.Shards == 0 {
		d, err := metricsDigest(res.Metrics)
		ok = err == nil && h.r.checkDigest(h.o, c.key, d)
	}
	h.r.tally(ok)
	return dt, res
}

// passes runs whole passes over the cells until d has elapsed, at least one,
// and calls each after every run (res is nil when the run failed). Whole
// passes keep every cell equally represented in the samples.
func (h *hotRun) passes(d time.Duration, cfg gpu.Config, each func(c *hotCell, dt time.Duration, res *gpu.Result)) (int, time.Duration) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < d {
		for _, c := range h.cells {
			dt, res := h.sim(c, cfg)
			each(c, dt, res)
		}
		n++
	}
	return n, time.Since(start)
}
