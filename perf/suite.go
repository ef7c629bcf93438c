package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"getm/internal/harness"
	"getm/internal/report"
	"getm/internal/stats"
	"getm/internal/trace"
	"getm/internal/workloads"
)

// paper-suite reproduces the paper's whole evaluation the way getm-bench
// does: the run grid precomputed on two workers by a fresh harness.Runner,
// then every experiment rendered as text in harness.All order, two at a
// time. It is the number users pay to reproduce the paper, and it exercises
// every protocol and the harness, workloads and report layers in the
// paper's proportions. The seed stays at the library's 42 whatever -seed
// says, so that the text is byte-identical to
// `getm-bench -scale 0.1 -workers 2 all`. Scale 0.1 keeps a pass under a
// second, so the host probes around each pass follow the host's drift, and
// one run holds about twenty passes.
const (
	suiteScale   = 0.1
	suiteSeed    = 42
	suiteWorkers = 2
)

type suitePass struct {
	text               string
	sims               int
	precompute, render time.Duration
	err                error
}

// runSuitePass runs one full evaluation; setup, when set, configures the
// runner first.
func runSuitePass(scale float64, setup func(*harness.Runner)) suitePass {
	r := harness.NewRunner(scale)
	r.Seed = suiteSeed
	if setup != nil {
		setup(r)
	}
	t0 := time.Now()
	// Precompute's failures are also recorded in r.Err, read below.
	_ = harness.Precompute(r, suiteWorkers)
	t1 := time.Now()
	exps := harness.All()
	outs := make([]string, len(exps))
	sem := make(chan struct{}, suiteWorkers)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e harness.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[i] = e.Run(r).Render(report.FormatText)
		}(i, e)
	}
	wg.Wait()
	return suitePass{text: strings.Join(outs, ""), sims: r.Simulated(),
		precompute: t1.Sub(t0), render: time.Since(t1), err: r.Err()}
}

func runSuite(o options) (*result, error) {
	r := newResult("paper-suite")
	scale := suiteScale
	if o.tiny {
		scale = 0.01
	}
	key := fmt.Sprintf("paper-suite scale=%g seed=%d", scale, suiteSeed)

	// The suite holds no state between passes. Its set-up time is the cost
	// of generating its inputs once, every benchmark kernel in both
	// variants, which each pass pays again inside its simulations.
	var buildMS []float64
	_, setups, err := timeSetup(o, func() (struct{}, error) {
		for _, b := range workloads.Names() {
			for _, v := range []workloads.Variant{workloads.TM, workloads.FGLock} {
				t0 := time.Now()
				if _, err := workloads.Build(b, v, workloads.Params{Scale: scale, Seed: suiteSeed}); err != nil {
					return struct{}{}, err
				}
				buildMS = append(buildMS, ms(time.Since(t0)))
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// passes runs whole evaluations until d has elapsed, at least one, and
	// checks each: no simulation may fail, and the text must match the
	// golden digest (or the first pass's).
	passes := func(d time.Duration, setup func(*harness.Runner), each func(suitePass, time.Duration)) (int, time.Duration) {
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < d {
			t0 := time.Now()
			p := runSuitePass(scale, setup)
			dt := time.Since(t0)
			if p.err != nil {
				fmt.Fprintln(os.Stderr, "perf: paper-suite:", p.err)
				r.tally(false)
			} else {
				r.tally(r.checkDigest(o, key, textDigest([]byte(p.text))))
			}
			each(p, dt)
			n++
		}
		return n, time.Since(start)
	}

	if !o.trace {
		var lat series
		probe := newHostProbe(suiteWorkers, nil)
		a0 := allocated()
		run, err := probed(o.window, probe, 1, func(i int) time.Duration {
			_, w := passes(0, nil, func(_ suitePass, dt time.Duration) { lat.add(ms(dt), i) })
			return w
		})
		if err != nil {
			return nil, err
		}
		return r, r.endToEnd([]*series{&lat}, run, allocated()-a0, setups, probe)
	}

	// Traced run, phase 1: untraced passes under the CPU profiler.
	half := o.window / 2
	var pre, ren []float64
	var sims, passesA int
	err = profileCPU(r, o.workdir, func() error {
		passesA, _ = passes(half, nil, func(p suitePass, _ time.Duration) {
			pre = append(pre, p.precompute.Seconds())
			ren = append(ren, p.render.Seconds())
			sims = p.sims
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("workloads.build_ms_p50", quantile(buildMS, 0.5), len(buildMS))
	r.set("harness.precompute_s", quantile(pre, 0.5), len(pre))
	r.set("report.render_s", quantile(ren, 0.5), len(ren))
	r.set("harness.sims", float64(sims), passesA)

	// Phase 2: untraced passes alternate with passes that trace every
	// simulation. The first traced pass also sums the event counts and the
	// simulated-clock counters of the whole grid.
	var mu sync.Mutex
	var ev eventCounts
	totals := stats.NewMetrics()
	var passesU, passesT int
	var wallU, cpuU time.Duration
	tracedSetup := func(hr *harness.Runner) {
		hr.Trace = &trace.Options{RingSize: traceRing}
		if passesT > 0 {
			return
		}
		hr.TraceSink = func(_ string, rec *trace.Recorder) {
			mu.Lock()
			ev.add(rec)
			mu.Unlock()
		}
		hr.Persist = func(_, _ string, m *stats.Metrics) error {
			mu.Lock()
			totals.Merge(m)
			mu.Unlock()
			return nil
		}
	}
	nop := func(suitePass, time.Duration) {}
	traceOverhead(r, half, func() (int, time.Duration) {
		c0 := cpuTime()
		n, wall := passes(0, nil, nop)
		passesU, wallU, cpuU = passesU+n, wallU+wall, cpuU+cpuTime()-c0
		return n, wall
	}, func() (int, time.Duration) {
		n, wall := passes(0, tracedSetup, nop)
		passesT += n
		return n, wall
	})
	recordSimCounts(r, totals)
	ev.record(r, cpuU/time.Duration(passesU))
	r.set("gpu.kcycles_per_s", float64(totals.TotalCycles)*float64(passesU)/wallU.Seconds()/1e3, passesU)
	return r, nil
}
