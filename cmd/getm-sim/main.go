// getm-sim runs one benchmark on one protocol and prints its metrics.
//
// Usage:
//
//	getm-sim -bench ht-h -proto getm [-conc 8] [-scale 1.0] [-cores 15] [-verbose]
//	         [-trace out.json] [-trace-format perfetto|csv|text]
//	         [-trace-filter simt,xbar,mem,core,warptm,eapg,tx] [-sample-interval 1000]
//	         [-store DIR] [-resume] [-timeout 30s]
//
// With -trace, the run records structured events from every machine layer
// plus interval-sampled time series, and writes them to the given file:
// perfetto output loads into ui.perfetto.dev / chrome://tracing, csv holds
// the sampled series only, text is a human-readable merged log.
//
// With -store DIR, the completed run is persisted to a crash-safe result
// store, and (unless -resume=false) an existing record for this exact
// configuration is reused instead of re-simulating — printing the identical
// metrics. Traced runs never reuse records (the trace must be regenerated)
// but still persist their metrics, which are cycle-identical to untraced
// ones. -timeout bounds the run's wall-clock time; a run cut short prints
// its partial metrics with a "TRUNCATED" note on stderr and exits nonzero,
// and is never persisted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/policy"
	"getm/internal/stats"
	"getm/internal/store"
	"getm/internal/trace"
	"getm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("getm-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ht-h", "benchmark name ("+fmt.Sprint(workloads.Names())+")")
	proto := fs.String("proto", "getm", "protocol: getm, warptm, warptm-el, eapg, fglock")
	policyFlag := fs.String("policy", "", "protocol-matrix point: a preset name or an axis list like vm=eager,cd=eager,res=timestamp (overrides -proto)")
	conc := fs.Int("conc", 0, "max concurrent tx warps per core (0 = unlimited)")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	cores := fs.Int("cores", 15, "SIMT core count (15 or 56 for the paper's configs)")
	seed := fs.Uint64("seed", 42, "workload seed")
	verbose := fs.Bool("verbose", false, "print extra counters")
	traceFile := fs.String("trace", "", "write a machine trace to this file")
	traceFormat := fs.String("trace-format", trace.FormatPerfetto, "trace output format: perfetto, csv, text")
	traceFilter := fs.String("trace-filter", "all", "comma-separated event sources to record (simt,xbar,mem,core,warptm,eapg,tx) or 'all'")
	sampleInterval := fs.Uint64("sample-interval", 1000, "cycles between telemetry samples (0 disables sampling)")
	storeDir := fs.String("store", "", "persist results to (and reuse them from) this directory")
	resume := fs.Bool("resume", true, "with -store, reuse existing records instead of re-simulating")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if explicitFlag(fs, "resume") && *storeDir == "" {
		fmt.Fprintln(stderr, "error: -resume requires -store (there is no store to resume from)")
		return 2
	}
	// -policy overrides -proto: a preset behaves exactly like naming the
	// protocol (same config, same store key). An invalid point or an unknown
	// protocol is a usage error, like any other bad flag value. label is the
	// protocol as the header and the store description print it: a
	// non-preset point as its bare axis tuple.
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

	cfg := harness.Job{Proto: protocol, Conc: *conc, Cores: *cores}.Config()

	if *traceFile != "" {
		mask, err := trace.ParseSources(*traceFilter)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		cfg.Trace = &trace.Options{Sources: mask, SampleInterval: *sampleInterval}
	}

	params := workloads.Params{Scale: *scale, Seed: *seed}
	variant := workloads.TM
	if protocol == gpu.ProtoFGLock {
		variant = workloads.FGLock
	}
	k, err := workloads.Build(*bench, variant, params)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var st *store.Store
	var storeKey string
	if *storeDir != "" {
		st = store.Open(*storeDir)
		if err := st.Degraded(); err != nil {
			fmt.Fprintln(stderr, "warning: store degraded (results will not persist):", err)
		}
		storeKey = store.Key(cfg, *bench, *scale, *seed)
		if *resume && *traceFile != "" {
			fmt.Fprintln(stderr, "warning: -trace forces re-simulation; the stored record is refreshed, not reused")
		}
	}

	// A verified stored record short-circuits the simulation — except when a
	// trace was requested, since the trace itself must be regenerated (the
	// metrics of a traced run are cycle-identical, so the record stays valid).
	var m *stats.Metrics
	truncated := false
	if st != nil && *resume && *traceFile == "" {
		if got, ok := st.Get(storeKey); ok {
			m = got
			fmt.Fprintln(stderr, "result loaded from store")
		}
	}
	if m == nil {
		res, err := gpu.RunContext(ctx, cfg, k)
		if res == nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if *traceFile != "" {
			if err := exportTrace(*traceFile, res.Trace, *traceFormat); err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace written    %s (%s)\n", *traceFile, *traceFormat)
		}
		m = res.Metrics
		truncated = res.Truncated
		switch {
		case err != nil:
			fmt.Fprintln(stderr, "error:", err)
		case st != nil && !res.Truncated:
			if perr := st.Put(storeKey, label+"/"+*bench, m); perr != nil {
				fmt.Fprintln(stderr, "warning: store:", perr)
			}
		}
		if err != nil {
			truncated = true
		}
		if truncated {
			// Diagnostic, not data: stdout stays byte-identical across
			// complete runs whatever the run's fate, so truncation notes
			// belong on stderr with the other operational chatter.
			fmt.Fprintf(stderr, "TRUNCATED: partial metrics, run stopped at cycle %d\n", res.TruncatedAt)
		}
	}
	fmt.Fprintf(stdout, "benchmark        %s (%s, %d cores, conc %s)\n", *bench, label, cfg.Cores, concStr(*conc))
	fmt.Fprintf(stdout, "total cycles     %d\n", m.TotalCycles)
	fmt.Fprintf(stdout, "tx exec cycles   %d\n", m.TxExecCycles)
	fmt.Fprintf(stdout, "tx wait cycles   %d\n", m.TxWaitCycles)
	fmt.Fprintf(stdout, "commits          %d\n", m.Commits)
	fmt.Fprintf(stdout, "aborts           %d (%.0f per 1K commits)\n", m.Aborts, m.AbortsPer1KCommits())
	fmt.Fprintf(stdout, "xbar traffic     %d B up, %d B down\n", m.XbarUpBytes, m.XbarDownBytes)
	if m.SilentCommits > 0 {
		fmt.Fprintf(stdout, "silent commits   %d\n", m.SilentCommits)
	}
	if m.MetaAccessCycles.Total() > 0 {
		fmt.Fprintf(stdout, "meta access      %.3f cycles/request\n", m.MetaAccessCycles.Mean())
		fmt.Fprintf(stdout, "stall buffer     max %d queued, %.2f reqs/addr\n",
			m.StallBufMaxOccupancy, m.StallBufPerAddr.Mean())
	}
	if len(m.AbortsByCause) > 0 {
		fmt.Fprintf(stdout, "abort causes     %v\n", m.AbortsByCause)
	}
	if *verbose {
		keys := make([]string, 0, len(m.Extra))
		for k := range m.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-24s %d\n", k, m.Extra[k])
		}
	}
	if truncated {
		return 1
	}
	return 0
}

func exportTrace(path string, rec *trace.Recorder, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Export(f, rec, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func concStr(c int) string {
	if c == 0 {
		return "NL"
	}
	return fmt.Sprint(c)
}
