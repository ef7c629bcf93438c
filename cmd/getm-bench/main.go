// getm-bench regenerates the paper's evaluation figures and tables.
//
// Usage:
//
//	getm-bench                     # run every experiment
//	getm-bench fig11 table4        # run specific ones
//	getm-bench -scale 0.25 all     # quick pass at reduced workload scale
//	getm-bench -workers 0 all      # parallel simulation on all CPUs
//	getm-bench -list               # list experiment ids
//	getm-bench -cpuprofile cpu.pb  # profile the run (also -memprofile)
//	getm-bench -trace run.json     # also record a traced reference run
//	getm-bench -policy vm=lazy,cd=eager fig11
//	                               # pin every TM cell to one matrix point
//
// With -trace, one designated simulation (ht-h on GETM at the chosen -scale
// and -seed) is run with the machine-wide recorder attached and exported to
// the given file; -trace-format, -trace-filter, and -sample-interval match
// getm-sim. The experiments themselves always run untraced — tracing is a
// separate reference run so the memoized grid stays byte-identical.
//
// With -workers N the full run grid is precomputed on N parallel workers and
// the experiments themselves execute concurrently; every simulation is
// deterministic and deduplicated by the harness, so the report output on
// stdout is byte-identical to a serial run (progress and timing go to
// stderr).
//
// With -store DIR every completed simulation is persisted to a crash-safe
// result store, and (unless -resume=false) cells already present — from this
// or an earlier, possibly killed, invocation — are loaded instead of re-run,
// so an interrupted full-scale campaign resumed against the same directory
// simulates only the missing cells and prints byte-identical reports.
// -timeout bounds the run; on expiry in-flight simulations stop within one
// chunk of cycles, nothing partial is persisted, and the exit status is
// nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/policy"
	"getm/internal/report"
	"getm/internal/store"
	"getm/internal/trace"
	"getm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("getm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "workload scale factor (1.0 = full reproduction scale)")
	seed := fs.Uint64("seed", 42, "workload seed")
	list := fs.Bool("list", false, "list experiments and exit")
	verbose := fs.Bool("v", false, "log each simulation run")
	format := fs.String("format", "text", "output format: text, markdown, csv")
	chart := fs.Bool("chart", false, "append an ASCII bar chart of each table's last column")
	workers := fs.Int("workers", 1, "simulation workers: precompute the run grid and execute experiments in parallel (0 = all CPUs, 1 = lazy sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := fs.String("trace", "", "record a traced ht-h/GETM reference run to this file")
	traceFormat := fs.String("trace-format", trace.FormatPerfetto, "trace output format: perfetto, csv, text")
	traceFilter := fs.String("trace-filter", "all", "comma-separated event sources to record, or 'all'")
	sampleInterval := fs.Uint64("sample-interval", 1000, "cycles between telemetry samples (0 disables sampling)")
	storeDir := fs.String("store", "", "persist results to (and resume them from) this directory")
	resume := fs.Bool("resume", true, "with -store, reuse existing records instead of re-simulating")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = none)")
	policyFlag := fs.String("policy", "", "pin every TM cell to one protocol-matrix point (preset name or axis list; fglock cells unaffected)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if explicitFlag(fs, "resume") && *storeDir == "" {
		fmt.Fprintln(stderr, "error: -resume requires -store (there is no store to resume from)")
		return 2
	}
	var pol policy.Policy
	if *policyFlag != "" {
		p, err := policy.Parse(*policyFlag)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		pol = p
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if err := (workloads.Params{Scale: *scale}).Validate(); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}
	exps := make([]harness.Experiment, len(ids))
	for i, id := range ids {
		e, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(stderr, "error: unknown experiment %q (use -list)\n", id)
			return 2
		}
		exps[i] = e
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if *traceFile != "" {
		if err := traceReferenceRun(*traceFile, *traceFormat, *traceFilter, *sampleInterval, *scale, *seed); err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "trace written to %s (%s)\n", *traceFile, *traceFormat)
	}

	r := harness.NewRunner(*scale)
	r.Seed = *seed
	r.Policy = pol
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		r.Ctx = ctx
	}
	if *storeDir != "" {
		r.Store = store.Open(*storeDir)
		if err := r.Store.Degraded(); err != nil {
			fmt.Fprintln(stderr, "warning: store degraded (results will not persist):", err)
		}
		r.StoreReuse = *resume
	}
	if *verbose || r.Store != nil {
		var logMu sync.Mutex
		r.Verbose = func(s string) {
			// Progress prints under -v; a warning (a failed store write,
			// which a later resume re-simulates) prints always.
			if *verbose || strings.HasPrefix(s, "warning: ") {
				logMu.Lock()
				fmt.Fprintln(stderr, s)
				logMu.Unlock()
			}
		}
	}

	par := *workers
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par != 1 {
		// Fill the cache with a worker pool; each simulation is
		// deterministic and deduplicated, so only wall-clock time changes.
		// The runner's Progress hook drives a throttled progress/ETA line —
		// a full-scale grid runs for minutes, and a silent terminal is
		// indistinguishable from a hung one.
		start := time.Now()
		var progMu sync.Mutex
		var lastLine time.Time
		r.Progress = func(done, total int) {
			progMu.Lock()
			defer progMu.Unlock()
			now := time.Now()
			if done < total && now.Sub(lastLine) < time.Second {
				return
			}
			lastLine = now
			elapsed := time.Since(start)
			eta := time.Duration(0)
			if done > 0 {
				eta = elapsed / time.Duration(done) * time.Duration(total-done)
			}
			fmt.Fprintf(stderr, "precompute %d/%d (%.0f%%) elapsed %s eta %s\n",
				done, total, 100*float64(done)/float64(total),
				elapsed.Round(time.Second), eta.Round(time.Second))
		}
		if err := harness.Precompute(r, par); err != nil {
			fmt.Fprintln(stderr, "precompute:", err)
		}
		r.Progress = nil
		fmt.Fprintf(stderr, "precomputed run grid on %d workers (%.1fs)\n", par, time.Since(start).Seconds())
	}

	// Render every experiment (concurrently when -workers allows: the runner
	// is thread-safe and memoizing), then print in request order so stdout
	// is identical regardless of parallelism.
	outputs := make([]string, len(exps))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, e := range exps {
		i, e := i, e
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			rep := e.Run(r)
			out := rep.Render(report.Format(*format))
			if *chart {
				for _, t := range rep.Tables {
					if len(t.Columns) > 1 {
						out += t.BarChart(t.Columns[len(t.Columns)-1], 40)
					}
				}
			}
			outputs[i] = out
			fmt.Fprintf(stderr, "%-8s (%.1fs)\n", e.ID, time.Since(start).Seconds())
		}()
	}
	wg.Wait()
	for _, out := range outputs {
		fmt.Fprint(stdout, out)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "memprofile:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "memprofile:", err)
			return 1
		}
	}

	if r.Store != nil {
		fmt.Fprintf(stderr, "%d simulated, %d reused from store\n", r.Simulated(), r.StoreHits())
	}
	if err := r.Err(); err != nil {
		fmt.Fprintln(stderr, "simulation failures:")
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// explicitFlag reports whether the user set the named flag on the command
// line (fs.Visit walks only explicitly-set flags).
func explicitFlag(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// traceReferenceRun executes the designated traced simulation (ht-h on GETM)
// on a runner of its own, so the experiments' runner stays untraced, and
// exports the recorder.
func traceReferenceRun(path, format, filter string, interval uint64, scale float64, seed uint64) error {
	mask, err := trace.ParseSources(filter)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	r := harness.NewRunner(scale)
	r.Trace = &trace.Options{Sources: mask, SampleInterval: interval}
	r.TraceSink = func(_ string, tr *trace.Recorder) { rec = tr }
	cell := harness.Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}.Cell(scale, seed)
	if _, err := r.RunCell(context.Background(), cell); err != nil {
		return err
	}
	return trace.ExportFile(path, rec, format)
}
