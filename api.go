package getm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"getm/internal/area"
	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/stats"
	"getm/internal/workloads"
)

// FGLock is the protocol name of the hand-tuned fine-grained-lock variant.
// It is the one synchronization mechanism that is not a transactional-memory
// policy, so it has no matrix preset — select it by name. The TM protocols
// are Policy presets instead: GETM(), WarpTM(), WarpTMEL(), EAPG() (their
// names — "getm", "warptm", "warptm-el", "eapg" — are still accepted by
// Options.Protocol; see doc.go for migration notes).
const FGLock = "fglock"

// Protocols lists the supported synchronization mechanisms by name: the
// four TM policy presets plus fglock.
func Protocols() []string {
	return []string{"getm", "warptm", "warptm-el", "eapg", FGLock}
}

// Benchmarks lists the TM workloads from the paper's Table III.
func Benchmarks() []string { return workloads.Names() }

// Options configures one simulation run. A field outside its stated range
// is an error matching ErrInvalidConfig, before anything simulates.
//
// Two fields use the zero value as a "default, please" sentinel rather than
// a literal setting: Scale == 0 is normalized to 1.0 (full reproduction
// scale), and Seed == 0 is normalized to 42 (the reproduction seed). A
// literal scale of 0 is meaningless, but note this makes a literal seed of 0
// inexpressible — runs that must distinguish seeds should use values >= 1.
// The normalization happens on a copy inside Run/RunContext; the caller's
// Options value is never modified.
type Options struct {
	// Protocol names the synchronization mechanism: one of Protocols()
	// (default "getm"). Ignored when Policy is set.
	Protocol string
	// Policy, when non-zero, selects the protocol-matrix point directly and
	// takes precedence over Protocol. The presets (GETM(), WarpTM(),
	// WarpTMEL(), EAPG()) reproduce the named protocols bit-for-bit; any
	// other point from Policies() explores the matrix beyond the paper.
	// Invalid combinations fail with an error matching ErrInvalidPolicy.
	Policy Policy
	// Benchmark is one of Benchmarks() (default "atm").
	Benchmark string
	// Concurrency limits transactional warps per core: 0 means unlimited,
	// and 1 to 48 (a core's warps) caps them.
	Concurrency int
	// Cores selects the machine: 0 or 15 is the paper's GTX480-like setup,
	// 56 the scalability configuration, and any other count from 1 to 56 the
	// GTX480-like setup with that many cores.
	Cores int
	// Scale multiplies workload sizes. 0 is a sentinel for the default 1.0;
	// any other scale must be finite and positive.
	Scale float64
	// Seed drives workload generation. 0 is a sentinel for the default 42.
	Seed uint64
	// MetadataEntries and GranularityBytes override GETM's metadata table
	// (0 = paper defaults: 4096 entries, 32-byte granules). Entries range
	// from 24 (32 at 56 cores) to 65536; a granule is a power of two from 8
	// to 4096 bytes.
	MetadataEntries  int
	GranularityBytes int
}

func (o Options) normalize() Options {
	if o.Protocol == "" {
		o.Protocol = "getm"
	}
	if o.Benchmark == "" {
		o.Benchmark = "atm"
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// job is the harness cell the options describe; its Config is the machine
// the run builds. A Policy names the protocol through gpu.ProtocolOf.
func (o Options) job() harness.Job {
	proto := gpu.Protocol(o.Protocol)
	if !o.Policy.IsZero() {
		proto = gpu.ProtocolOf(o.Policy.internal())
	}
	return harness.Job{
		Proto:       proto,
		Bench:       o.Benchmark,
		Conc:        o.Concurrency,
		Cores:       o.Cores,
		MetaEntries: o.MetadataEntries,
		Granularity: o.GranularityBytes,
	}
}

// validate checks the protocol fields up front so bad options fail with
// the typed sentinels before any simulation work; the cell checks the rest.
func (o Options) validate() error {
	if !o.Policy.IsZero() {
		if err := o.Policy.Validate(); err != nil {
			return err
		}
	} else if !slices.Contains(Protocols(), o.Protocol) {
		return fmt.Errorf("%w %q (want one of %v)", ErrUnknownProtocol, o.Protocol, Protocols())
	}
	return nil
}

// Metrics summarizes a run. Cycle quantities are in interconnect cycles.
type Metrics struct {
	// TotalCycles is the kernel's wall-clock length.
	TotalCycles uint64
	// TxExecCycles and TxWaitCycles split per-warp transactional time into
	// execution (including retries) and waiting (throttle, commit round
	// trips, backoff), summed across warps.
	TxExecCycles uint64
	TxWaitCycles uint64
	// Commits and Aborts count thread-level transactions.
	Commits uint64
	Aborts  uint64
	// AbortsByCause breaks down Aborts ("war", "waw-raw", "validation",
	// "intra-warp", "stall-full", "early-abort").
	AbortsByCause map[string]uint64
	// InterconnectBytes is total crossbar payload traffic.
	InterconnectBytes uint64
	// SilentCommits counts WarpTM's TCD read-only silent commits.
	SilentCommits uint64
	// MetaAccessCycles is GETM's mean metadata-table latency per request.
	MetaAccessCycles float64
	// MaxStalledRequests is the peak GETM stall-buffer occupancy.
	MaxStalledRequests uint64
	// Counters carries additional protocol-specific counters.
	Counters map[string]uint64
	// Truncated marks partial metrics from a run cut short by context
	// cancellation (RunContext returned an error matching ErrCanceled
	// alongside these tallies). Truncated metrics cover the run's first
	// TotalCycles cycles only and skip end-of-run verification.
	Truncated bool
}

// AbortsPer1KCommits returns the paper's Table IV abort metric. When the run
// committed nothing but aborted at least once the rate is +Inf (check with
// math.IsInf); it is 0 only when there were neither commits nor aborts.
func (m Metrics) AbortsPer1KCommits() float64 {
	if m.Commits == 0 {
		if m.Aborts > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return float64(m.Aborts) * 1000 / float64(m.Commits)
}

// Run simulates one benchmark under one protocol and returns its metrics.
// The run is deterministic for fixed Options. It is the context-free wrapper
// around RunContext.
func Run(o Options) (Metrics, error) {
	return RunContext(context.Background(), o)
}

// RunContext simulates one benchmark under one protocol, honouring ctx: a
// cancel or deadline stops the engine within one chunk of simulated cycles
// (gpu.DefaultCancelChunk) and returns the partial metrics accumulated so
// far, tagged Truncated, alongside an error matching ErrCanceled. The
// context bounds the workload build as well: one that expires before the
// first cycle returns the error alone. Runs are deterministic for fixed
// Options, and a cancellable context that never fires changes nothing about
// the result.
func RunContext(ctx context.Context, o Options) (Metrics, error) {
	o = o.normalize()
	if err := o.validate(); err != nil {
		return Metrics{}, err
	}
	cell := o.job().Cell(o.Scale, o.Seed)
	if err := cell.Validate(); err != nil {
		return Metrics{}, fmt.Errorf("getm: %w", err)
	}
	m, err := harness.NewRunner(o.Scale).RunCell(ctx, cell)
	if m == nil {
		return Metrics{}, err
	}
	return toMetrics(m), err
}

// toMetrics converts the internal metrics to the public shape.
func toMetrics(m *stats.Metrics) Metrics {
	out := Metrics{
		TotalCycles:        m.TotalCycles,
		TxExecCycles:       m.TxExecCycles,
		TxWaitCycles:       m.TxWaitCycles,
		Commits:            m.Commits,
		Aborts:             m.Aborts,
		AbortsByCause:      map[string]uint64{},
		InterconnectBytes:  m.XbarBytes(),
		SilentCommits:      m.SilentCommits,
		MetaAccessCycles:   m.MetaAccessCycles.Mean(),
		MaxStalledRequests: m.StallBufMaxOccupancy,
		Counters:           map[string]uint64{},
		Truncated:          m.Truncated,
	}
	for k, v := range m.AbortsByCause {
		out.AbortsByCause[k] = v
	}
	for k, v := range m.Extra {
		out.Counters[k] = v
	}
	return out
}

// Experiment identifies one reproduction experiment (a figure or table of
// the paper's evaluation).
type Experiment struct {
	ID    string
	Title string
}

// Experiments lists the reproduction experiment ids (fig3..fig17, table4,
// table5) with their titles, in the paper's order.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range harness.All() {
		out = append(out, Experiment{ID: e.ID, Title: e.Title})
	}
	return out
}

// RunExperiment regenerates one of the paper's figures or tables at the
// given workload scale (1.0 = full, as is 0) and returns the rendered
// report. It is the context-free wrapper around RunExperimentContext.
func RunExperiment(id string, scale float64) (string, error) {
	return RunExperimentContext(context.Background(), id, WithScale(scale))
}

func experimentIDs() []string {
	var ids []string
	for _, x := range harness.All() {
		ids = append(ids, x.ID)
	}
	sort.Strings(ids)
	return ids
}

// TableV returns the silicon area and power comparison (paper Table V) from
// the CACTI-calibrated model.
func TableV() string { return area.TableV() }
