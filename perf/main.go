// Command perf is the repository's performance benchmark. It drives the
// simulator and its HTTP service from outside, through their public entry
// points (harness.Precompute and harness.All, workloads.Build, gpu.Run, and
// serve.New over loopback HTTP), on four closed-loop workloads. It checks
// every output and prints each metric by name, with its unit and the number
// of samples behind it.
//
// Build and run it from the repository root with perf/run.sh, which keeps
// every build product under .bench_build/:
//
//	bash perf/run.sh --workload eager-hot --seed 1 --seconds 20 --trace 0
//	bash perf/run.sh                     # every workload, each in a child process
//	bash perf/run.sh --trace 1           # per-layer numbers and tracing overhead
//	bash perf/run.sh --out results.json  # host facts and raw samples, for cmd/benchdiff
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end set (endToEndMetrics), measured untraced; with -trace 1 they are
// the per-layer set (perLayerMetrics). perf/README.md describes each
// workload and metric.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"getm/internal/gpu"
	"getm/internal/trace"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"paper-suite", "eager-hot", "lazy-hot", "serve-sweep"}

var workloadFuncs = map[string]func(options) (*result, error){
	"paper-suite": runSuite,
	"eager-hot":   func(o options) (*result, error) { return runHot(o, "eager-hot", gpu.ProtoGETM) },
	"lazy-hot":    func(o options) (*result, error) { return runHot(o, "lazy-hot", gpu.ProtoWarpTM) },
	"serve-sweep": runServe,
}

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the workload sees, measured untraced.
// An op is what one closed-loop client waits for: a full evaluation pass
// (paper-suite), one simulation (eager-hot, lazy-hot), one HTTP request
// (serve-sweep).
var endToEndMetrics = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuLayers are the CPU-share buckets of a traced run: the internal packages
// a run passes through, the Go runtime, and everything else.
var cpuLayers = []string{
	"sim", "simt", "xbar", "mem", "tm", "core", "warptm", "eapg", "policy", "gpu", "isa",
	"workloads", "harness", "report", "stats", "trace", "serve", "store", "runtime", "other",
}

// perLayerMetrics are the traced run's metrics. A metric that does not apply
// to a workload (serve counters on a simulation workload, say) reads 0.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	defs = append(defs, []metricDef{
		{"trace_overhead_pct", "%"},
		{"workloads.build_ms_p50", "ms"},
		{"harness.precompute_s", "s"},
		{"report.render_s", "s"},
		{"harness.sims", "count"},
		{"gpu.kcycles_per_s", "kcycles/s"},
		{"gpu.ns_per_event", "ns"},
		{"gpu.sharded_over_serial", "ratio"},
		{"sim.cycles", "cycles"},
		{"tx.commit_ratio", "ratio"},
		{"tx.aborts", "count"},
		{"simt.instructions", "count"},
		{"simt.ipc", "ratio"},
		{"mem.llc_hit_ratio", "ratio"},
		{"mem.atomics", "count"},
		{"xbar.bytes", "B"},
		{"core.vu_requests", "count"},
		{"core.vu_queued", "count"},
		{"core.meta_access_cycles_mean", "cycles"},
		{"core.stall_enqueues", "count"},
		{"warptm.silent_commits", "count"},
	}...)
	for s := trace.Source(0); s < trace.NumSources; s++ {
		defs = append(defs, metricDef{s.String() + ".events", "count"})
	}
	return append(defs, []metricDef{
		{"serve.dedupe_ratio", "ratio"},
		{"serve.simulated", "count"},
		{"serve.shed", "count"},
		{"serve.queue_ms_p99", "ms"},
		{"serve.sim_ms_p99", "ms"},
		{"serve.persist_ms_p99", "ms"},
		{"store.flush_ms_p99", "ms"},
		{"store.absorbed", "count"},
	}...)
}()

// options are one run's parameters.
type options struct {
	seed uint64
	// window is the measurement time; a traced run splits it between its
	// untraced and traced phases.
	window  time.Duration
	trace   bool
	workdir string
	// tiny shrinks every input to test size.
	tiny bool
	// goldens maps a golden key to the output digest it must reproduce.
	goldens map[string]string
}

// result is one workload run's outcome.
type result struct {
	workload          string
	attempted, failed int
	values            map[string]float64
	counts            map[string]int // samples behind each value; 0 for counts
	samples           map[string][]float64
	digests           map[string]string // golden key -> observed digest
	probeMS           float64           // median host probe of an untraced run
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		values:   map[string]float64{},
		counts:   map[string]int{},
		samples:  map[string][]float64{},
		digests:  map[string]string{},
	}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// tally counts one attempted op, failed unless ok.
func (r *result) tally(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// checkDigest compares an observed output digest with the golden for key,
// or — without a golden — with the first digest observed for key in this
// run, so repetitions must agree either way. A mismatch is reported and
// returns false.
func (r *result) checkDigest(o options, key, got string) bool {
	want, ok := o.goldens[key]
	if !ok {
		want, ok = r.digests[key]
	}
	if !ok {
		r.digests[key] = got
		return true
	}
	r.digests[key] = got
	if got != want {
		fmt.Fprintf(os.Stderr, "perf: %s: digest %s, want %s\n", key, got, want)
		return false
	}
	return true
}

// endToEnd records the untraced metrics every workload shares. groups holds
// the ops, grouped by input. Percentiles are taken within each group and
// averaged across groups, so that inputs of very different cost never put a
// percentile in the gap between them. Every op and the wall time are scaled
// by the host probe's slowdown for their unit of work (see hostProbe and
// probed), the set-ups by the run's median slowdown. alloc is the bytes
// allocated while the units ran, and setups one duration (s) per set-up.
func (r *result) endToEnd(groups []*series, run probedRun, alloc uint64, setups []float64, probe *hostProbe) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var scaled [][]float64
	var raw, slow []float64
	for _, g := range groups {
		sc := make([]float64, len(g.ms))
		for i := range g.ms {
			s := run.slow[g.unit[i]]
			sc[i] = g.ms[i] / s
			slow = append(slow, s)
		}
		scaled = append(scaled, sc)
		raw = append(raw, g.ms...)
	}
	n := len(raw)
	r.set("op_ms_p50", meanQuantile(scaled, 0.50), n)
	r.set("op_ms_p90", meanQuantile(scaled, 0.90), n)
	r.set("ops_per_s", float64(n)/run.scaledWall().Seconds(), n)
	r.set("alloc_mb_per_op", float64(alloc)/1e6/float64(n), n)
	r.set("peak_rss_mb", rss, 1)
	r.set("setup_s", quantile(setups, 0.5)/probe.slowdown(), len(setups))
	r.samples["op_ms"] = raw
	r.samples["op_slowdown"] = slow
	r.samples["setup_s"] = setups
	r.samples["probe_ms"] = probe.ms
	r.probeMS = quantile(probe.ms, 0.5)
	return nil
}

// defs returns the metric set a run reports.
func defs(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// Each workload sets up at least setupReps times and until setupMin has
// passed, so that a set-up of a few milliseconds is repeated often enough
// for a steady median; setup_s is the median.
const (
	setupReps = 9
	setupMin  = 500 * time.Millisecond
)

// timeSetup runs fn as setupReps and setupMin ask (once at test size) from a
// collected heap and returns each duration in seconds. Every repetition but
// the last is torn down with discard before the next one starts.
func timeSetup[T any](o options, fn func() (T, error), discard func(T) error) (T, []float64, error) {
	reps, least := setupReps, setupMin
	if o.tiny {
		reps, least = 1, 0
	}
	var v T
	var secs []float64
	start := time.Now()
	for i := 0; i < reps || time.Since(start) < least; i++ {
		if i > 0 && discard != nil {
			if err := discard(v); err != nil {
				return v, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		got, err := fn()
		if err != nil {
			return v, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		v = got
	}
	return v, secs, nil
}

//go:embed goldens.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty = all, each in a child process)")
	seed := fs.Uint64("seed", 1, "input seed; the recorded golden digests are for seed 1")
	seconds := fs.Float64("seconds", 20, "measurement time per run; a traced run splits it between its untraced and traced phases")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics and tracing overhead")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files (CPU profiles, the service's store)")
	out := fs.String("out", "", "also write host facts, metrics and raw samples to this JSON file (compare two with cmd/benchdiff)")
	writeGoldens := fs.String("write-goldens", "", "merge the output digests this run observed into this golden file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "perf: want -trace 0 or 1, -seconds >= 0, and no positional arguments")
		return 2
	}
	o := options{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		workdir: *workdir,
	}
	if err := json.Unmarshal(goldenJSON, &o.goldens); err != nil {
		fmt.Fprintln(stderr, "perf: goldens.json:", err)
		return 1
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if *workload == "" {
		return runAll(o, *out, *writeGoldens, stdout, stderr)
	}
	fn, ok := workloadFuncs[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perf: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perf: %s: %v\n", *workload, err)
		return 1
	}
	printLines(stdout, res, o)
	if *out != "" {
		rf := resultsFile{Host: host(), Seed: o.seed, Seconds: *seconds, Trace: *traceFlag,
			Workloads: map[string]workloadRecord{res.workload: res.record(o.trace)}}
		if err := rf.write(*out); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	if *writeGoldens != "" {
		if err := mergeGoldens(*writeGoldens, res.digests); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.lastLine(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload in a fresh child process of this binary, so no
// workload inherits another's heap, and merges their results. Its last line
// is the merged JSON object: correct only if every workload was, attempted
// and failed summed, and each metric as <workload>/<metric>. It fails if any
// workload failed or reported a failed op.
func runAll(o options, out, writeGoldens string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	merged := resultsFile{Host: host(), Seed: o.seed, Seconds: o.window.Seconds(), Workloads: map[string]workloadRecord{}}
	if o.trace {
		merged.Trace = 1
	}
	last := lastLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range workloadNames {
		childOut := filepath.Join(o.workdir, "results-"+w+".json")
		args := []string{"-workload", w, "-out", childOut, "-workdir", o.workdir,
			"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.window.Seconds(), 'g', -1, 64),
			"-trace", strconv.Itoa(merged.Trace), "-write-goldens", writeGoldens}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w, err)
			last.Correct = false
			continue
		}
		// Keep the human-readable lines; the trailing JSON line is per child.
		text := strings.TrimRight(buf.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Fprintln(stdout, text[:i])
		}
		var rf resultsFile
		b, err := os.ReadFile(childOut)
		if err == nil {
			err = json.Unmarshal(b, &rf)
		}
		os.Remove(childOut)
		rec, ok := rf.Workloads[w]
		if err == nil && !ok {
			err = errors.New("no record of the workload")
		}
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: results: %v\n", w, err)
			last.Correct = false
			continue
		}
		merged.Workloads[w] = rec
		last.Correct = last.Correct && rec.Correct
		last.Attempted += rec.Attempted
		last.Failed += rec.Failed
		for name, m := range rec.Metrics {
			last.Metrics[w+"/"+name] = valueUnit{m.Value, m.Unit}
		}
	}
	if out != "" {
		if err := merged.write(out); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct || last.Failed > 0 {
		return 1
	}
	return 0
}

// printLines writes one line per metric — workload, name, value, unit and
// sample count — then the op tally and every output digest observed.
func printLines(w io.Writer, r *result, o options) {
	for _, d := range defs(o.trace) {
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", r.workload, d.name,
			strconv.FormatFloat(r.values[d.name], 'g', -1, 64), d.unit, r.counts[d.name])
	}
	fmt.Fprintf(w, "%s ops attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
	if r.probeMS > 0 {
		fmt.Fprintf(w, "%s host probe %s ms median, %g ms on the reference host\n", r.workload,
			strconv.FormatFloat(r.probeMS, 'g', -1, 64), probeRefMS)
	}
	keys := make([]string, 0, len(r.digests))
	for k := range r.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		state := "unrecorded"
		if want, ok := o.goldens[k]; ok {
			state = "golden"
			if want != r.digests[k] {
				state = "MISMATCH"
			}
		}
		fmt.Fprintf(w, "%s digest %q %s %s\n", r.workload, k, r.digests[k], state)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (r *result) lastLine(traced bool) lastLine {
	l := lastLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs(traced) {
		l.Metrics[d.name] = valueUnit{r.values[d.name], d.unit}
	}
	return l
}

// resultsFile is the -out document. cmd/benchdiff compares two of them leaf
// by leaf: every number is keyed by its JSON path, strings are ignored.
type resultsFile struct {
	Host      hostFacts                 `json:"host"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Trace     int                       `json:"trace"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]recordMetric `json:"metrics"`
	Samples   map[string][]float64    `json:"samples"`
	Digests   map[string]string       `json:"digests,omitempty"`
}

type recordMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func (r *result) record(traced bool) workloadRecord {
	rec := workloadRecord{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]recordMetric{}, Samples: r.samples, Digests: r.digests}
	for _, d := range defs(traced) {
		rec.Metrics[d.name] = recordMetric{r.values[d.name], d.unit, r.counts[d.name]}
	}
	return rec
}

func (rf resultsFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

type hostFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// host describes the machine and source revision a results file came from.
func host() hostFacts {
	h := hostFacts{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// mergeGoldens adds digests to the golden file at path (created if absent),
// the way to re-record goldens after an intentional model change.
func mergeGoldens(path string, digests map[string]string) error {
	g := map[string]string{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("goldens %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("goldens: %w", err)
	}
	for k, v := range digests {
		g[k] = v
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("goldens: %w", err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
