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
// depth), cores (SIMT core count).
//
// Sweep points are independent deterministic simulations, so -workers N runs
// them in parallel; the table is assembled in value order either way.
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
// express (conc, cores) and -policy-grid work remotely; -store, -resume,
// and -shards are the server's business and are refused with -server.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/report"
	"getm/internal/serve"
	"getm/internal/stats"
	"getm/internal/store"
	"getm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("getm-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ht-h", "benchmark to sweep")
	proto := fs.String("proto", "getm", "protocol: getm, warptm, warptm-el, eapg, fglock")
	policyFlag := fs.String("policy", "", "protocol-matrix point: a preset name or an axis list like vm=eager,cd=eager,res=timestamp (overrides -proto)")
	policyGrid := fs.Bool("policy-grid", false, "sweep the full policy matrix instead of a knob: every valid point on each -bench workload")
	knob := fs.String("knob", "conc", "parameter to sweep: conc, gran, meta, stall, backoff, inflight, cores")
	values := fs.String("values", "1,2,4,8,16", "comma-separated knob values")
	scale := fs.Float64("scale", 1.0, "workload scale")
	seed := fs.Uint64("seed", 42, "workload seed")
	conc := fs.Int("conc", 8, "tx warps/core when not the swept knob")
	format := fs.String("format", "text", "output format: text, markdown, csv")
	workers := fs.Int("workers", 1, "run sweep points on this many parallel workers (0 = all CPUs)")
	storeDir := fs.String("store", "", "persist results to (and resume them from) this directory")
	resume := fs.Bool("resume", true, "with -store, reuse existing records instead of re-simulating")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this wall-clock duration (0 = none)")
	shards := fs.Int("shards", 0, "run each point on the parallel engine with this many workers (0 = serial; getm/fglock only)")
	server := fs.String("server", "", "submit sweep points to a running getm-serve (or cluster coordinator) at this base URL instead of simulating locally")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if explicitFlag(fs, "resume") && *storeDir == "" {
		fmt.Fprintln(stderr, "error: -resume requires -store (there is no store to resume from)")
		return 2
	}
	if *server != "" {
		if *storeDir != "" || explicitFlag(fs, "resume") {
			fmt.Fprintln(stderr, "error: -store/-resume cannot be combined with -server (persistence and resume belong to the server's store)")
			return 2
		}
		if *shards != 0 {
			fmt.Fprintln(stderr, "error: -shards cannot be combined with -server (the engine mode is the server's choice)")
			return 2
		}
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
	if _, err := protocol.Resolve(); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	if *policyGrid {
		if *policyFlag != "" {
			fmt.Fprintln(stderr, "error: -policy-grid sweeps every valid point; it cannot be combined with -policy")
			return 2
		}
		return runPolicyGrid(stdout, stderr, gridOpts{
			benches: *bench, scale: *scale, seed: *seed, conc: *conc,
			format: *format, workers: *workers, storeDir: *storeDir,
			resume: *resume, timeout: *timeout, server: *server,
			explicitBench: explicitFlag(fs, "bench"),
		})
	}

	if *server != "" && *knob != "conc" && *knob != "cores" {
		fmt.Fprintf(stderr, "error: -server sweeps support only the conc and cores knobs (%q is simulator-internal and not expressible in a run request)\n", *knob)
		return 2
	}

	var vals []int
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(stderr, "bad value %q: %v\n", s, err)
			return 1
		}
		vals = append(vals, v)
	}

	tab := report.NewTable("sweep",
		fmt.Sprintf("%s on %s, sweeping %s", label, *bench, *knob),
		*knob, "cycles", "tx exec", "tx wait", "commits", "aborts/1K", "xbar MB")

	variant := workloads.TM
	if protocol == gpu.ProtoFGLock {
		variant = workloads.FGLock
	}

	configs := make([]gpu.Config, len(vals))
	for i, v := range vals {
		cfg := gpu.DefaultConfig(protocol)
		cfg.Core.MaxTxWarps = *conc
		cfg.Shards = *shards
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
			cfg.Cores = v
		default:
			fmt.Fprintf(stderr, "unknown knob %q\n", *knob)
			return 1
		}
		configs[i] = cfg
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var st *store.Store
	if *storeDir != "" {
		st = store.Open(*storeDir)
		if err := st.Degraded(); err != nil {
			fmt.Fprintln(stderr, "warning: store degraded (results will not persist):", err)
		}
	}

	// Each point is an independent deterministic simulation; run them on a
	// bounded worker pool and keep results indexed so the table order (and
	// therefore the output) matches the serial run exactly. With a store,
	// points persisted by an earlier invocation are loaded instead of re-run.
	par := *workers
	if par <= 0 {
		par = runtime.NumCPU()
	}
	metrics := make([]*stats.Metrics, len(vals))
	errs := make([]error, len(vals))
	var simulated, reused atomic.Int64
	// Every point runs the same kernel (gpu.Kernel's contract lets the
	// workers share it); it is built once, by the first point that
	// simulates.
	kernel := sync.OnceValues(func() (*gpu.Kernel, error) {
		return workloads.Build(*bench, variant, workloads.Params{Scale: *scale, Seed: *seed})
	})
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range vals {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if *server != "" {
				sp := serverSweepSpec(*proto, *policyFlag, *bench, *scale, *seed, *conc, *knob, vals[i])
				metrics[i], errs[i] = postPoint(ctx, *server, sp)
				return
			}
			var key string
			if st != nil {
				key = store.Key(configs[i], *bench, *scale, *seed)
				if *resume {
					if m, ok := st.Get(key); ok {
						metrics[i] = m
						reused.Add(1)
						return
					}
				}
			}
			k, err := kernel()
			if err != nil {
				errs[i] = err
				return
			}
			res, err := gpu.RunContext(ctx, configs[i], k)
			if err != nil {
				errs[i] = err
				return
			}
			// A partial point can't sit in a table next to complete ones —
			// the comparison would be meaningless. Treat it as the failure
			// it is; the store backstop refuses truncated metrics anyway.
			if res.Truncated || res.Metrics.Truncated {
				errs[i] = fmt.Errorf("truncated at cycle %d (partial metrics discarded)", res.TruncatedAt)
				return
			}
			metrics[i] = res.Metrics
			simulated.Add(1)
			if st != nil {
				desc := fmt.Sprintf("%s/%s/%s=%d", label, *bench, *knob, vals[i])
				if perr := st.Put(key, desc, res.Metrics); perr != nil {
					fmt.Fprintln(stderr, "warning: store:", perr)
				}
			}
		}()
	}
	wg.Wait()
	if st != nil {
		fmt.Fprintf(stderr, "%d simulated, %d reused from store\n", simulated.Load(), reused.Load())
	}

	for i, v := range vals {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "error at %s=%d: %v\n", *knob, v, errs[i])
			return 1
		}
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

// gridOpts carries the sweep flags the policy-grid mode shares with the
// knob mode.
type gridOpts struct {
	benches       string
	scale         float64
	seed          uint64
	conc          int
	format        string
	workers       int
	storeDir      string
	resume        bool
	timeout       time.Duration
	server        string
	explicitBench bool
}

// runPolicyGrid sweeps the full protocol policy matrix: every implementable
// point (policy.Valid — the four presets plus the eight unexplored valid
// combinations) on every listed benchmark, reporting commit throughput and
// abort rate per cell. Cells are independent deterministic simulations and
// run on the same bounded worker pool as knob sweeps; with -store each cell
// persists under its canonicalized policy key, so preset rows share records
// with name-based runs and a resumed grid re-runs only the missing cells.
func runPolicyGrid(stdout, stderr io.Writer, o gridOpts) int {
	benchList := []string{"ht-h", "atm"}
	if o.explicitBench {
		benchList = nil
		for _, b := range strings.Split(o.benches, ",") {
			if b = strings.TrimSpace(b); b != "" {
				benchList = append(benchList, b)
			}
		}
	}
	points := policy.Valid()

	type cell struct {
		pol   policy.Policy
		bench string
	}
	var cells []cell
	for _, p := range points {
		for _, b := range benchList {
			cells = append(cells, cell{p, b})
		}
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	var st *store.Store
	if o.storeDir != "" {
		st = store.Open(o.storeDir)
		if err := st.Degraded(); err != nil {
			fmt.Fprintln(stderr, "warning: store degraded (results will not persist):", err)
		}
	}

	par := o.workers
	if par <= 0 {
		par = runtime.NumCPU()
	}
	metrics := make([]*stats.Metrics, len(cells))
	errs := make([]error, len(cells))
	var simulated, reused atomic.Int64
	// Cells on one bench share its kernel, built once by the first cell
	// that simulates.
	kernels := make(map[string]func() (*gpu.Kernel, error), len(benchList))
	for _, b := range benchList {
		b := b
		kernels[b] = sync.OnceValues(func() (*gpu.Kernel, error) {
			return workloads.Build(b, workloads.TM, workloads.Params{Scale: o.scale, Seed: o.seed})
		})
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range cells {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if o.server != "" {
				sp := serve.RunSpec{
					Policy:    cells[i].pol.String(),
					Benchmark: cells[i].bench,
					Scale:     o.scale,
					Seed:      o.seed,
					Conc:      o.conc,
				}
				metrics[i], errs[i] = postPoint(ctx, o.server, sp)
				return
			}
			cfg := gpu.DefaultConfig(gpu.ProtocolOf(cells[i].pol))
			cfg.Core.MaxTxWarps = o.conc
			var key string
			if st != nil {
				key = store.Key(cfg, cells[i].bench, o.scale, o.seed)
				if o.resume {
					if m, ok := st.Get(key); ok {
						metrics[i] = m
						reused.Add(1)
						return
					}
				}
			}
			k, err := kernels[cells[i].bench]()
			if err != nil {
				errs[i] = err
				return
			}
			res, err := gpu.RunContext(ctx, cfg, k)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Truncated || res.Metrics.Truncated {
				errs[i] = fmt.Errorf("truncated at cycle %d (partial metrics discarded)", res.TruncatedAt)
				return
			}
			metrics[i] = res.Metrics
			simulated.Add(1)
			if st != nil {
				desc := cells[i].pol.String() + "/" + cells[i].bench
				if perr := st.Put(key, desc, res.Metrics); perr != nil {
					fmt.Fprintln(stderr, "warning: store:", perr)
				}
			}
		}()
	}
	wg.Wait()
	if st != nil {
		fmt.Fprintf(stderr, "%d simulated, %d reused from store\n", simulated.Load(), reused.Load())
	}

	tab := report.NewTable("policy-grid",
		fmt.Sprintf("policy matrix (%d points) × {%s}, scale %g",
			len(points), strings.Join(benchList, ","), o.scale),
		"policy", "bench", "cycles", "commits", "aborts/1K", "commits/Kcyc")
	for i, c := range cells {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "error at %s/%s: %v\n", c.pol, c.bench, errs[i])
			return 1
		}
		m := metrics[i]
		throughput := 0.0
		if m.TotalCycles > 0 {
			throughput = float64(m.Commits) * 1000 / float64(m.TotalCycles)
		}
		tab.AddRow(
			report.Str(c.pol.String()),
			report.Str(c.bench),
			report.Int(m.TotalCycles),
			report.Int(m.Commits),
			report.Num(m.AbortsPer1KCommits(), 0),
			report.Num(throughput, 2),
		)
	}
	fmt.Fprint(stdout, tab.Render(report.Format(o.format)))
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
