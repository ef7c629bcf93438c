package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"getm/internal/stats"
	"getm/internal/trace"
)

// quantile returns the q-quantile of xs, interpolating linearly between order
// statistics, or 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// meanQuantile is the mean over groups of each group's q-quantile.
func meanQuantile(groups [][]float64, q float64) float64 {
	var sum float64
	for _, g := range groups {
		sum += quantile(g, q)
	}
	return sum / float64(len(groups))
}

// hostProbe times fixed standard-library work that no change to this
// repository can speed up or slow down: sorting copies of 2^17
// pseudo-random words, one copy per goroutine the workload keeps busy, all
// at once. A shared host's speed drifts by 10-30% within minutes, more than
// the difference a change should be judged by, and a probe taken next to
// a unit of work drifts with it. Each unit's timings are therefore scaled by
// the slowdown the probes just before and just after it measured, so that
// runs compare code rather than host load. The raw timings and probes are
// kept.
//
// The probe must time the host, not the code under test, so each sample
// first waits until the process is quiet: the workload's own quiesce (a
// service's write-behind flush, say), then a complete garbage collection,
// so that no collection or background work left over from the last unit
// runs beside the probe. TestProbeKeepsInjectedWork checks that work
// injected into a unit survives the scaling.
type hostProbe struct {
	words []uint64
	bufs  [][]uint64
	ms    []float64 // one per round
	// quiesce, when set, returns once the code under test has no work left
	// in flight.
	quiesce func() error
}

// probeRefMS is the probe's round time on the idle 2-core Xeon host the
// bounds were calibrated on; it only sets the scale of the reported timings.
const probeRefMS = 10.5

func newHostProbe(width int, quiesce func() error) *hostProbe {
	rng := rand.New(rand.NewPCG(1, 1))
	p := &hostProbe{words: make([]uint64, 1<<17), quiesce: quiesce}
	for i := range p.words {
		p.words[i] = rng.Uint64()
	}
	for i := 0; i < width; i++ {
		p.bufs = append(p.bufs, make([]uint64, len(p.words)))
	}
	return p
}

// sample quiesces the process, times three rounds and returns the median
// round's slowdown against probeRefMS.
func (p *hostProbe) sample() (float64, error) {
	if p.quiesce != nil {
		if err := p.quiesce(); err != nil {
			return 0, fmt.Errorf("quiesce: %w", err)
		}
	}
	runtime.GC()
	var rounds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, b := range p.bufs {
			wg.Add(1)
			go func(b []uint64) {
				defer wg.Done()
				copy(b, p.words)
				slices.Sort(b)
			}(b)
		}
		wg.Wait()
		rounds = append(rounds, ms(time.Since(t0)))
	}
	p.ms = append(p.ms, rounds...)
	return quantile(rounds, 0.5) / probeRefMS, nil
}

// slowdown is the run's median slowdown.
func (p *hostProbe) slowdown() float64 { return quantile(p.ms, 0.5) / probeRefMS }

// probedRun is what probed measured: each unit's wall time, and the
// slowdown that scales it.
type probedRun struct {
	wall []time.Duration
	slow []float64
}

// scaledWall is the units' wall time, each scaled by its slowdown.
func (pr probedRun) scaledWall() time.Duration {
	var w time.Duration
	for i, d := range pr.wall {
		w += time.Duration(float64(d) / pr.slow[i])
	}
	return w
}

// probed runs unit 0, 1, ... until d has elapsed and a whole round of units
// is done (at least one round), sampling the probe before the first unit
// and after every unit. A unit is at most about a second of work, so that
// the probes follow the host's drift; perRound units make one round, a pass
// over every input. unit records its ops under its index and returns its
// wall time. Unit i's slowdown is the geometric mean of the samples just
// before and just after it.
func probed(d time.Duration, p *hostProbe, perRound int, unit func(i int) time.Duration) (probedRun, error) {
	var pr probedRun
	start := time.Now()
	before, err := p.sample()
	if err != nil {
		return pr, err
	}
	for i := 0; i == 0 || i%perRound != 0 || time.Since(start) < d; i++ {
		pr.wall = append(pr.wall, unit(i))
		after, err := p.sample()
		if err != nil {
			return pr, err
		}
		pr.slow = append(pr.slow, math.Sqrt(before*after))
		before = after
	}
	return pr, nil
}

// series holds the latencies of one group of ops, each with the index of
// the unit of work it ran in.
type series struct {
	ms   []float64
	unit []int
}

func (s *series) add(ms float64, unit int) {
	s.ms = append(s.ms, ms)
	s.unit = append(s.unit, unit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// allocated returns the bytes the process has allocated on the heap so far.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// metricsDigest is the SHA-256 of a run's canonical-JSON metrics: equal
// inputs on an unchanged simulator must reproduce it bit for bit.
func metricsDigest(m *stats.Metrics) (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return textDigest(b), nil
}

func textDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// recordSimCounts records the simulated-clock counters of a fixed set of runs
// (m is their stats.Metrics.Merge). They are deterministic for given inputs,
// so a change that only speeds up the simulator must leave each one as is.
func recordSimCounts(r *result, m *stats.Metrics) {
	x := m.Extra
	r.set("sim.cycles", float64(m.TotalCycles), 0)
	r.set("tx.commit_ratio", ratio(m.Commits, m.Commits+m.Aborts), 0)
	r.set("tx.aborts", float64(m.Aborts), 0)
	r.set("simt.instructions", float64(x["instructions"]), 0)
	r.set("simt.ipc", ratio(x["instructions"], m.TotalCycles), 0)
	r.set("mem.llc_hit_ratio", ratio(x["llc-hits"], x["llc-hits"]+x["llc-misses"]), 0)
	r.set("mem.atomics", float64(x["atomics"]), 0)
	r.set("xbar.bytes", float64(m.XbarBytes()), 0)
	r.set("core.vu_requests", float64(x["vu-requests"]), 0)
	r.set("core.vu_queued", float64(x["vu-queued"]), 0)
	r.set("core.meta_access_cycles_mean", m.MetaAccessCycles.Mean(), 0)
	r.set("core.stall_enqueues", float64(x["stall-enqueues"]), 0)
	r.set("warptm.silent_commits", float64(m.SilentCommits), 0)
}

// eventCounts sums trace.Recorder totals per event source.
type eventCounts [trace.NumSources]uint64

func (e *eventCounts) add(rec *trace.Recorder) {
	for s := trace.Source(0); s < trace.NumSources; s++ {
		e[s] += rec.Total(s)
	}
}

func (e *eventCounts) total() uint64 {
	var n uint64
	for _, v := range e {
		n += v
	}
	return n
}

// record sets <source>.events, and gpu.ns_per_event from the untraced CPU
// time spent on the same work.
func (e *eventCounts) record(r *result, cpu time.Duration) {
	for s := trace.Source(0); s < trace.NumSources; s++ {
		r.set(s.String()+".events", float64(e[s]), 0)
	}
	if n := e.total(); n > 0 {
		r.set("gpu.ns_per_event", float64(cpu.Nanoseconds())/float64(n), 0)
	}
}

// traceRing is the per-source ring of traced runs: the size the service
// keeps per captured run, so the overhead measured is that of real capture.
const traceRing = 1 << 12

// traceOverhead runs an untraced and a traced unit of work in turn until d
// has elapsed, at least one pair, so that drift in the host's speed touches
// both sides alike. Each unit returns the ops it completed and its wall
// time. It records trace_overhead_pct: the traced time per op against the
// untraced time per op.
func traceOverhead(r *result, d time.Duration, untraced, traced func() (int, time.Duration)) {
	var nu, nt int
	var wu, wt time.Duration
	start := time.Now()
	for nt == 0 || time.Since(start) < d {
		n, w := untraced()
		nu, wu = nu+n, wu+w
		n, w = traced()
		nt, wt = nt+n, wt+w
	}
	perOpU := wu.Seconds() / float64(nu)
	perOpT := wt.Seconds() / float64(nt)
	r.set("trace_overhead_pct", (perOpT/perOpU-1)*100, nt)
}

// profileCPU runs fn under the CPU profiler and records each layer's share
// of the sampled CPU time as <layer>.cpu_pct.
func profileCPU(r *result, workdir string, fn func() error) error {
	f, err := os.CreateTemp(workdir, "cpu-*.pb")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if runErr != nil {
		return runErr
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodefraction=0", "-edgefraction=0", f.Name()).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := bucketTop(string(out))
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_pct", shares[l], 0)
	}
	return nil
}

// bucketTop sums the flat% column of a `go tool pprof -top` listing by layer
// (see layerOf). Packages that are not in cpuLayers count as "other".
func bucketTop(listing string) (map[string]float64, error) {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	shares := map[string]float64{}
	header := false
	for _, line := range strings.Split(listing, "\n") {
		fields := strings.Fields(line)
		if !header {
			header = len(fields) == 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof listing: bad flat%% in %q", line)
		}
		l := layerOf(strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)"))
		if !known[l] {
			l = "other"
		}
		shares[l] += pct
	}
	if !header {
		return nil, fmt.Errorf("pprof listing: no flat/flat%% header")
	}
	return shares, nil
}

// layerOf maps a profiled function to its layer: the package under
// getm/internal/, "runtime" for the Go runtime (including its assembly
// stubs, which carry no package prefix), or "other". System calls count as
// other: they are the network and disk I/O of the layers above.
func layerOf(fn string) string {
	const internal = "getm/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return "other"
	}
	if strings.HasPrefix(fn, "internal/runtime/syscall.") {
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	if !strings.ContainsAny(fn, "./") {
		return "runtime"
	}
	return "other"
}
