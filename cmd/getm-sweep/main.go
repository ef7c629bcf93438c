// getm-sweep runs a one-dimensional parameter sweep and prints a table (or
// CSV) of the key metrics per setting — the quickest way to explore a design
// knob beyond the paper's figures.
//
// Usage:
//
//	getm-sweep -bench ht-h -proto getm -knob conc -values 1,2,4,8,16
//	getm-sweep -bench atm  -proto getm -knob gran -values 16,32,64,128 -format csv
//	getm-sweep -bench ht-m -proto warptm -knob inflight -values 1,2,4,8
//
// Knobs: conc (tx warps/core), gran (GETM conflict granularity, bytes),
// meta (GETM precise metadata entries), stall (GETM stall-buffer lines),
// backoff (retry backoff cap, cycles), inflight (WarpTM commit pipelining
// depth), cores (SIMT core count; 56 selects the paper's scaled machine, as
// in getm-sim and getm-serve). Cores beyond those the kernel's warps fill
// do nothing: at scale 0.1 every benchmark but cc runs on core 0 alone.
//
// Sweep points are independent deterministic simulations, so -workers N runs
// them in parallel; the table is assembled in value order either way, and a
// value listed twice simulates once.
//
// With -store DIR each completed point is persisted crash-safely and (unless
// -resume=false) points already present in the store — from this or an
// earlier, possibly killed, invocation — are reused instead of re-simulated,
// so a resumed sweep runs only the missing cells and prints a byte-identical
// table. -timeout bounds the whole sweep; points cut short are reported as
// errors and never persisted. Tables only ever contain complete runs, and
// stdout carries nothing but the table: diagnostics (store counts, warnings,
// per-point errors) go to stderr.
//
// Two flags open the protocol policy matrix:
//
//	getm-sweep -policy vm=lazy,cd=eager,arb=local -knob conc -values 1,4,16
//	getm-sweep -policy-grid -bench ht-h,atm -scale 0.1
//
// -policy pins the swept protocol to one matrix point (preset name or axis
// list; overrides -proto; invalid points are a usage error). -policy-grid
// replaces the knob sweep entirely: every implementable matrix point (12 of
// the 24 combinations) runs on each listed benchmark (-bench becomes a
// comma-separated list, default "ht-h,atm"), and the table reports cycles,
// commit throughput, and abort rate per (policy, benchmark) cell.
//
// -server URL submits every point to a running getm-serve instead of
// simulating locally — point it at a cluster coordinator and the sweep
// shards across the fabric's workers. Only the knobs a run request can
// express (conc, cores) and -policy-grid work remotely; -store and -resume
// are the server's business and are refused with -server.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/policy"
	"getm/internal/report"
	"getm/internal/serve"
	"getm/internal/stats"
	"getm/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// knobs are the machine fields -knob can sweep.
var knobs = []string{"conc", "gran", "meta", "stall", "backoff", "inflight", "cores"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("getm-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ht-h", "benchmark to sweep")
	proto := fs.String("proto", "getm", "protocol: getm, warptm, warptm-el, eapg, fglock")
	policyFlag := fs.String("policy", "", "protocol-matrix point: a preset name or an axis list like vm=eager,cd=eager,res=timestamp (overrides -proto)")
	policyGrid := fs.Bool("policy-grid", false, "sweep the full policy matrix instead of a knob: every valid point on each -bench workload")
	knob := fs.String("knob", "conc", "parameter to sweep: conc, gran, meta, stall, backoff, inflight, cores (56 = the paper's scaled machine; cores the kernel's warps do not fill stay idle: at scale 0.1 all benchmarks but cc run on core 0)")
	values := fs.String("values", "1,2,4,8,16", "comma-separated non-negative knob values")
	scale := fs.Float64("scale", 1.0, "workload scale")
	seed := fs.Uint64("seed", 42, "workload seed")
	conc := fs.Int("conc", 8, "tx warps/core when not the swept knob")
	format := fs.String("format", "text", "output format: text, markdown, csv")
	workers := fs.Int("workers", 1, "run sweep points on this many parallel workers (0 = all CPUs)")
	storeDir := fs.String("store", "", "persist results to (and resume them from) this directory")
	resume := fs.Bool("resume", true, "with -store, reuse existing records instead of re-simulating")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this wall-clock duration (0 = none)")
	server := fs.String("server", "", "submit sweep points to a running getm-serve (or cluster coordinator) at this base URL instead of simulating locally")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if explicitFlag(fs, "resume") && *storeDir == "" {
		fmt.Fprintln(stderr, "error: -resume requires -store (there is no store to resume from)")
		return 2
	}
	if *server != "" && (*storeDir != "" || explicitFlag(fs, "resume")) {
		fmt.Fprintln(stderr, "error: -store/-resume cannot be combined with -server (persistence and resume belong to the server's store)")
		return 2
	}
	// label is the protocol as the table title and store descriptions print
	// it: a non-preset point as its bare axis tuple.
	protocol, label := gpu.Protocol(*proto), *proto
	if *policyFlag != "" {
		p, err := policy.Parse(*policyFlag)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		protocol, label = gpu.ProtocolOf(p), p.String()
	}
	ex := execOpts{workers: *workers, storeDir: *storeDir, resume: *resume, timeout: *timeout, server: *server}
	if *policyGrid {
		if *policyFlag != "" {
			fmt.Fprintln(stderr, "error: -policy-grid sweeps every valid point; it cannot be combined with -policy")
			return 2
		}
		benches := []string{"ht-h", "atm"}
		if explicitFlag(fs, "bench") {
			benches = nil
			for _, b := range strings.Split(*bench, ",") {
				if b = strings.TrimSpace(b); b != "" {
					benches = append(benches, b)
				}
			}
		}
		return runPolicyGrid(stdout, stderr, benches, *scale, *seed, *conc, *format, ex)
	}

	if !slices.Contains(knobs, *knob) {
		fmt.Fprintf(stderr, "error: unknown knob %q (want one of %s)\n", *knob, strings.Join(knobs, ", "))
		return 2
	}
	if *server != "" && *knob != "conc" && *knob != "cores" {
		fmt.Fprintf(stderr, "error: -server sweeps support only the conc and cores knobs (%q is simulator-internal and not expressible in a run request)\n", *knob)
		return 2
	}

	var vals []int
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			fmt.Fprintf(stderr, "error: bad value %q: want a non-negative integer\n", s)
			return 2
		}
		vals = append(vals, v)
	}

	// Each point's machine is the one getm-sim, getm-serve and the
	// experiments build for the same flags, plus the swept field.
	points := make([]point, len(vals))
	for i, v := range vals {
		job := harness.Job{Proto: protocol, Bench: *bench, Conc: *conc}
		cfg := job.Config()
		switch *knob {
		case "conc":
			cfg.Core.MaxTxWarps = v
		case "gran":
			cfg.GETM.GranularityBytes = v
		case "meta":
			cfg.GETM.PreciseEntries = v
		case "stall":
			cfg.GETM.StallLines = v
		case "backoff":
			cfg.Core.BackoffCap = uint64(v)
		case "inflight":
			cfg.WarpTM.MaxInFlight = v
		case "cores":
			job.Cores = v
			cfg = job.Config()
		}
		name := fmt.Sprintf("%s=%d", *knob, v)
		points[i] = point{
			name: name,
			cell: harness.Cell{Bench: *bench, Scale: *scale, Seed: *seed, Config: cfg, Desc: label + "/" + *bench + "/" + name},
			spec: serverSweepSpec(*proto, *policyFlag, *bench, *scale, *seed, *conc, *knob, v),
		}
	}
	metrics, code := runPoints(points, ex, stderr)
	if metrics == nil {
		return code
	}

	tab := report.NewTable("sweep",
		fmt.Sprintf("%s on %s, sweeping %s", label, *bench, *knob),
		*knob, "cycles", "tx exec", "tx wait", "commits", "aborts/1K", "xbar MB")
	for i, v := range vals {
		m := metrics[i]
		tab.AddRow(
			report.Int(uint64(v)),
			report.Int(m.TotalCycles),
			report.Int(m.TxExecCycles),
			report.Int(m.TxWaitCycles),
			report.Int(m.Commits),
			report.Num(m.AbortsPer1KCommits(), 0),
			report.Num(float64(m.XbarBytes())/(1<<20), 2),
		)
	}

	fmt.Fprint(stdout, tab.Render(report.Format(*format)))
	if *format == "text" {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tab.BarChart("cycles", 40))
	}
	return 0
}

// execOpts carries the flags that decide where and how a sweep's points
// run.
type execOpts struct {
	workers  int
	storeDir string
	resume   bool
	timeout  time.Duration
	server   string
}

// point is one sweep cell: its name on error lines, the cell a local sweep
// simulates, and the run request a -server sweep posts.
type point struct {
	name string
	cell harness.Cell
	spec serve.RunSpec
}

// runPoints runs every point on -workers parallel workers and returns their
// metrics in order. With -server the points are posted to the server;
// otherwise one harness.Runner simulates them, deduplicated by cell and
// sharing one kernel per bench, and with -store persists each point and
// reuses the points an earlier (possibly killed) invocation stored. A
// failure prints the first failing point to stderr and returns nil with the
// exit code: 2 if harness.Cell.Validate rejects a point (then none runs),
// else 1, as a table only ever holds complete runs.
func runPoints(points []point, o execOpts, stderr io.Writer) ([]*stats.Metrics, int) {
	for _, p := range points {
		if err := p.cell.Validate(); err != nil {
			fmt.Fprintf(stderr, "error: %s: %v\n", p.name, err)
			return nil, 2
		}
	}
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	metrics := make([]*stats.Metrics, len(points))
	errs := make([]error, len(points))
	if o.server != "" {
		par := o.workers
		if par <= 0 {
			par = runtime.NumCPU()
		}
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i := range points {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				metrics[i], errs[i] = postPoint(ctx, o.server, points[i].spec)
			}(i)
		}
		wg.Wait()
	} else {
		r := harness.NewRunner(1) // cells carry their own scale and seed
		r.Ctx = ctx
		if o.storeDir != "" {
			r.Store = store.Open(o.storeDir)
			if err := r.Store.Degraded(); err != nil {
				fmt.Fprintln(stderr, "warning: store degraded (results will not persist):", err)
			}
			r.StoreReuse = o.resume
			var logMu sync.Mutex
			r.Verbose = func(s string) {
				// Warnings (a failed store write) only; progress is not
				// printed.
				if strings.HasPrefix(s, "warning: ") {
					logMu.Lock()
					fmt.Fprintln(stderr, s)
					logMu.Unlock()
				}
			}
		}
		cells := make([]harness.Cell, len(points))
		for i, p := range points {
			cells[i] = p.cell
		}
		// Failures are read back per point below: RunCell returns a cell's
		// cached result or failure (a canceled cell fails again at once).
		_ = r.RunCells(cells, o.workers)
		if r.Store != nil {
			fmt.Fprintf(stderr, "%d simulated, %d reused from store\n", r.Simulated(), r.StoreHits())
		}
		for i, p := range points {
			if metrics[i], errs[i] = r.RunCell(ctx, p.cell); errs[i] != nil {
				break
			}
		}
	}
	for i, p := range points {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "error at %s: %v\n", p.name, errs[i])
			return nil, 1
		}
	}
	return metrics, 0
}

// runPolicyGrid sweeps the full protocol policy matrix: every implementable
// point (policy.Valid — the four presets plus the eight unexplored valid
// combinations) on every listed benchmark, reporting commit throughput and
// abort rate per cell. Cells run like knob-sweep points; with -store each
// persists under its canonicalized policy key, so preset rows share records
// with name-based runs and a resumed grid re-runs only the missing cells.
func runPolicyGrid(stdout, stderr io.Writer, benches []string, scale float64, seed uint64, conc int, format string, ex execOpts) int {
	pols := policy.Valid()
	var points []point
	for _, p := range pols {
		for _, b := range benches {
			name := p.String() + "/" + b
			cfg := harness.Job{Proto: gpu.ProtocolOf(p), Bench: b, Conc: conc}.Config()
			points = append(points, point{
				name: name,
				cell: harness.Cell{Bench: b, Scale: scale, Seed: seed, Config: cfg, Desc: name},
				spec: serve.RunSpec{Policy: p.String(), Benchmark: b, Scale: scale, Seed: seed, Conc: conc},
			})
		}
	}
	metrics, code := runPoints(points, ex, stderr)
	if metrics == nil {
		return code
	}

	tab := report.NewTable("policy-grid",
		fmt.Sprintf("policy matrix (%d points) × {%s}, scale %g",
			len(pols), strings.Join(benches, ","), scale),
		"policy", "bench", "cycles", "commits", "aborts/1K", "commits/Kcyc")
	for i, p := range points {
		m := metrics[i]
		throughput := 0.0
		if m.TotalCycles > 0 {
			throughput = float64(m.Commits) * 1000 / float64(m.TotalCycles)
		}
		tab.AddRow(
			report.Str(p.spec.Policy),
			report.Str(p.cell.Bench),
			report.Int(m.TotalCycles),
			report.Int(m.Commits),
			report.Num(m.AbortsPer1KCommits(), 0),
			report.Num(throughput, 2),
		)
	}
	fmt.Fprint(stdout, tab.Render(report.Format(format)))
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
