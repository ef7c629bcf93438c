// Package gpu assembles the full simulated machine — SIMT cores, crossbars,
// memory partitions, and a transactional-memory protocol — and runs a
// workload kernel on it, producing the metrics the experiment harness
// consumes.
package gpu

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"getm/internal/core"
	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/policy"
	"getm/internal/sim"
	"getm/internal/simt"
	"getm/internal/stats"
	"getm/internal/tm"
	"getm/internal/trace"
	"getm/internal/warptm"
	"getm/internal/xbar"
)

// Protocol selects the synchronization mechanism for a run.
type Protocol string

// Supported protocols.
const (
	// ProtoGETM is the paper's contribution: eager conflict detection with
	// lazy versioning.
	ProtoGETM Protocol = "getm"
	// ProtoWarpTM is the lazy-lazy baseline with value-based validation.
	ProtoWarpTM Protocol = "warptm"
	// ProtoWarpTMEL is the idealized eager-lazy WarpTM variant (§III).
	ProtoWarpTMEL Protocol = "warptm-el"
	// ProtoEAPG is the idealized EarlyAbort/Pause-n-Go baseline.
	ProtoEAPG Protocol = "eapg"
	// ProtoFGLock runs the hand-tuned fine-grained lock version.
	ProtoFGLock Protocol = "fglock"
)

// ErrUnknownProtocol is wrapped by the error Resolve (and so every run)
// returns for a Protocol that names nothing runnable.
var ErrUnknownProtocol = errors.New("unknown protocol")

// policyPrefix marks a Protocol naming a non-preset matrix point.
const policyPrefix = "policy:"

// ProtocolOf is the one canonicalization from a matrix point to the Protocol
// that names it: a preset's legacy name, so presets keep the store addresses
// name-based runs always had, and "policy:" plus the canonical tuple for
// every other point. Each edge that accepts a policy (the API, CLI flags,
// serve specs, harness.Runner.Policy) calls it once, after policy.Parse.
func ProtocolOf(p policy.Policy) Protocol {
	if name, ok := policy.PresetName(p); ok {
		return Protocol(name)
	}
	return Protocol(policyPrefix + p.Canonical())
}

// Resolve returns the matrix point p names; fglock, which is not a TM
// policy, resolves to the zero Policy. Only the spellings ProtocolOf
// produces resolve: anything else — an unknown name, a tuple without the
// "policy:" prefix, a prefixed preset, an invalid or non-canonical tuple —
// is an error wrapping ErrUnknownProtocol.
func (p Protocol) Resolve() (policy.Policy, error) {
	if p == ProtoFGLock {
		return policy.Policy{}, nil
	}
	if pol, ok := policy.Preset(string(p)); ok {
		return pol, nil
	}
	tuple, ok := strings.CutPrefix(string(p), policyPrefix)
	if !ok {
		return policy.Policy{}, fmt.Errorf("%w %q", ErrUnknownProtocol, p)
	}
	pol, err := policy.Parse(tuple)
	if err != nil {
		return policy.Policy{}, fmt.Errorf("%w %q: %w", ErrUnknownProtocol, p, err)
	}
	if canon := ProtocolOf(pol); canon != p {
		return policy.Policy{}, fmt.Errorf("%w %q (the canonical spelling is %q)", ErrUnknownProtocol, p, canon)
	}
	return pol, nil
}

// Config describes one machine configuration.
type Config struct {
	// Protocol is the run's one protocol identity: a preset name (getm,
	// warptm, warptm-el, eapg), fglock, or "policy:" plus the canonical
	// tuple of any other matrix point. ProtocolOf builds it from a
	// policy.Policy and Resolve reads it back; store.Key hashes it as is,
	// so every spelling of one point shares one content address.
	Protocol   Protocol
	Cores      int
	Partitions int
	Core       simt.Config
	Xbar       xbar.Config
	Partition  mem.PartitionConfig
	GETM       core.Config
	WarpTM     warptm.Config
	LineBytes  int
	Seed       uint64
	// Record enables committed-transaction recording for the
	// serializability checker (integration tests).
	Record bool
	// MaxCycles aborts a run that exceeds this simulated length (0 = none).
	// Exceeding it is an error — it is the runaway/deadlock backstop.
	MaxCycles sim.Cycle
	// CycleBudget stops a run after this many simulated cycles (0 = none).
	// Unlike MaxCycles, hitting the budget is not an error: the run returns
	// partial metrics with Result.Truncated set. Use it to bound the cost of
	// exploratory runs.
	CycleBudget sim.Cycle
	// CancelChunk bounds cancellation latency: when RunContext is given a
	// cancellable context and no telemetry sampling is active, the engine
	// runs in chunks of this many cycles and polls the context at each
	// boundary (0 = DefaultCancelChunk). Chunked stepping is cycle-identical
	// to a single run (sim.Engine.RunChunked), so the setting never changes
	// results — only how promptly a cancel takes effect.
	CancelChunk sim.Cycle
	// Trace, when non-nil, enables the machine-wide event recorder and
	// interval sampler (internal/trace); the recorder is returned in
	// Result.Trace. A nil Trace costs one pointer compare per would-be
	// emission — nothing is allocated.
	Trace *trace.Options
	// Shards is kept only so existing callers compile and store keys keep
	// their JSON: 0 is the only accepted value, and RunContext returns an
	// error for any other.
	//
	// Deprecated: the sharded engine was removed; every run is serial.
	Shards int
}

// Shardable reports false for every configuration: no sharded engine is
// left to host one.
//
// Deprecated: the sharded engine was removed; every run is serial.
func Shardable(Config) bool { return false }

// DefaultConfig mirrors Table II's 15-core GTX480-like setup.
func DefaultConfig(p Protocol) Config {
	return Config{
		Protocol:   p,
		Cores:      15,
		Partitions: 6,
		Core:       simt.DefaultConfig(),
		Xbar:       xbar.DefaultConfig(0, 0),
		Partition:  mem.DefaultPartitionConfig(),
		GETM:       core.DefaultConfig(),
		WarpTM:     warptm.DefaultConfig(),
		LineBytes:  128,
		Seed:       1,
		MaxCycles:  200_000_000,
	}
}

// ScaledConfig returns the 56-core, 8-partition, 4MB-LLC configuration used
// by the paper's scalability study (Fig 17). Following §VI-A, WarpTM's
// recency (TCD) filter and GETM's precise metadata table are doubled.
func ScaledConfig(p Protocol) Config {
	cfg := DefaultConfig(p)
	cfg.Cores = 56
	cfg.Partitions = 8
	cfg.Partition.LLCBytes = (4 << 20) / 8 // 4MB total across 8 partitions
	cfg.WarpTM.TCDEntries *= 2
	cfg.GETM.PreciseEntries *= 2
	return cfg
}

// Kernel is a runnable workload: one program per warp's worth of threads,
// memory initialization, and a post-run semantic verifier.
//
// A kernel may run on any number of machines, one after another or at once
// on several goroutines, and every run sees the same workload:
//   - Programs are read-only during a run (simt.sortedLocks copies a lock
//     list before it sorts it);
//   - Init is deterministic and writes only the image it is given;
//   - Verify only reads.
type Kernel struct {
	Name     string
	Programs []*isa.Program
	Init     func(img *mem.Image)
	Verify   func(img *mem.Image) error
}

// Result carries a run's outputs.
type Result struct {
	Metrics *stats.Metrics
	// Committed and InitialImage are populated when cfg.Record is set.
	Committed    []tm.CommittedTx
	InitialImage *mem.Image
	FinalImage   *mem.Image
	// Trace holds the event recorder when cfg.Trace was set (export it with
	// trace.Export).
	Trace *trace.Recorder
	// Truncated marks a run cut short — by context cancellation or by
	// Config.CycleBudget — at cycle TruncatedAt. Metrics are the partial
	// tallies up to that point; kernel verification, deadlock detection, and
	// protocol invariant checks are skipped (the machine was mid-flight).
	// Truncated results must never be cached as if complete.
	Truncated   bool
	TruncatedAt sim.Cycle
}

// ErrCanceled is returned (wrapped) by RunContext when the context is
// cancelled or its deadline expires before the kernel completes. The
// context's own cause is joined in, so errors.Is also matches
// context.Canceled / context.DeadlineExceeded as appropriate.
var ErrCanceled = errors.New("run canceled")

// DefaultCancelChunk is the engine-chunk size used to poll a cancellable
// context when Config.CancelChunk is 0: cancellation takes effect within
// this many simulated cycles.
const DefaultCancelChunk sim.Cycle = 1 << 16

// Run executes the kernel on the configured machine.
func Run(cfg Config, k *Kernel) (*Result, error) {
	return RunContext(context.Background(), cfg, k)
}

// RunContext executes the kernel, honouring ctx: a cancel or deadline stops
// the engine at the next chunk boundary (at most Config.CancelChunk cycles
// later, or the sampling interval when telemetry is active) and returns the
// partial metrics tagged Truncated alongside an error wrapping ErrCanceled.
// Chunked stepping is cycle-identical to an unchunked run, so passing a
// cancellable context that never fires changes nothing about the result.
// An unresolvable Config.Protocol is an error wrapping ErrUnknownProtocol.
func RunContext(ctx context.Context, cfg Config, k *Kernel) (*Result, error) {
	if len(k.Programs) == 0 {
		return nil, fmt.Errorf("gpu: kernel %q has no programs", k.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gpu: kernel %q: %w", k.Name, errors.Join(ErrCanceled, err))
	}
	if cfg.Shards != 0 {
		return nil, fmt.Errorf("gpu: kernel %q: Shards is %d, but the sharded engine was removed; only 0 is accepted", k.Name, cfg.Shards)
	}
	pol, err := cfg.Protocol.Resolve()
	if err != nil {
		return nil, fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
	}
	img := mem.NewImage()
	if k.Init != nil {
		k.Init(img)
	}
	var initial *mem.Image
	if cfg.Record {
		initial = img.Snapshot()
	}

	eng := sim.NewEngine()
	var rec *trace.Recorder
	if cfg.Trace != nil {
		rec = trace.NewRecorder(eng, *cfg.Trace)
	}
	m, err := newMachine(eng, img, cfg, pol, rec)
	if err != nil {
		return nil, fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
	}

	// Round-robin program dispatch: each warp slot pulls the next pending
	// program when it retires one.
	nextProg := 0
	dispatch := func() *isa.Program {
		if nextProg >= len(k.Programs) {
			return nil
		}
		p := k.Programs[nextProg]
		nextProg++
		return p
	}

	rng := sim.NewRNG(cfg.Seed)
	cores := make([]*simt.Core, cfg.Cores)
	for i := range cores {
		cores[i] = simt.NewCore(i, eng, cfg.Core, m.protocol, m.memsys, rng.Fork(uint64(1000+i)), dispatch)
		if rec != nil {
			cores[i].SetTrace(rec)
		}
	}
	if aa, ok := m.protocol.(tm.AsyncAborter); ok {
		aa.SetAbortSink(func(n tm.AbortNotice) {
			c := n.GWID / cfg.Core.WarpsPerCore
			if c >= 0 && c < len(cores) {
				cores[c].AsyncAbort(n)
			}
		})
	}
	if rec != nil {
		m.registerProbes(rec, cores)
	}

	res, err := runMachine(ctx, cfg, k, eng, m, cores, rec)
	if err == nil && cfg.Record {
		res.Committed = m.committed()
		res.InitialImage = initial
		res.FinalImage = img
	}
	m.recycle(cores)
	return res, err
}

// runMachine is the run loop: it starts the cores, steps the engine to the
// cycle limit, and turns the end state into a Result — canceled, truncated
// by the budget, over MaxCycles, deadlocked, invariant-violating,
// unverified, or complete. rec is nil when tracing is off.
func runMachine(ctx context.Context, cfg Config, k *Kernel, eng *sim.Engine, m *machine,
	cores []*simt.Core, rec *trace.Recorder) (*Result, error) {
	for _, c := range cores {
		c.Start()
	}
	// The budget is a softer MaxCycles: it lowers the run limit, and hitting
	// it yields a truncated result instead of an error.
	limit := cfg.MaxCycles
	budgeted := cfg.CycleBudget != 0 && (limit == 0 || cfg.CycleBudget < limit)
	if budgeted {
		limit = cfg.CycleBudget
	}

	// Chunk the engine loop when anything needs to observe the run in
	// flight: the telemetry sampler (chunk = sampling interval) or a
	// cancellable context (chunk = CancelChunk). Chunked stepping processes
	// events in exactly the order a single Run would (sim.Engine.RunChunked),
	// so chunking never changes metrics — only cancel latency and sample
	// cadence.
	sampleEvery := sim.Cycle(0)
	if rec != nil {
		sampleEvery = sim.Cycle(rec.SampleEvery())
	}
	cancellable := ctx.Done() != nil
	chunk := sampleEvery
	if chunk == 0 && cancellable {
		chunk = cfg.CancelChunk
		if chunk == 0 {
			chunk = DefaultCancelChunk
		}
	}
	var end sim.Cycle
	canceled := false
	if chunk == 0 {
		end = eng.Run(limit)
	} else {
		end = eng.RunChunked(limit, chunk, func(now sim.Cycle) bool {
			if sampleEvery > 0 {
				rec.TakeSample(uint64(now))
			}
			if cancellable && ctx.Err() != nil {
				canceled = true
				return false
			}
			return true
		})
		if sampleEvery > 0 {
			// Final partial interval (TakeSample skips duplicate boundaries).
			rec.TakeSample(uint64(end))
		}
	}

	if canceled {
		pm := m.collect(cores, end)
		pm.Truncated = true
		res := &Result{Metrics: pm, Trace: rec, Truncated: true, TruncatedAt: end}
		return res, fmt.Errorf("gpu: kernel %q canceled at cycle %d: %w",
			k.Name, end, errors.Join(ErrCanceled, context.Cause(ctx)))
	}
	if budgeted && end >= limit && eng.Pending() > 0 {
		pm := m.collect(cores, end)
		pm.Truncated = true
		return &Result{Metrics: pm, Trace: rec, Truncated: true, TruncatedAt: end}, nil
	}
	if cfg.MaxCycles != 0 && end >= cfg.MaxCycles {
		return nil, fmt.Errorf("gpu: kernel %q exceeded %d cycles", k.Name, cfg.MaxCycles)
	}
	var stuck []string
	for _, c := range cores {
		if !c.AllDone() {
			stuck = append(stuck, c.StuckWarps()...)
		}
	}
	if len(stuck) > 0 {
		return nil, fmt.Errorf("gpu: kernel %q deadlocked:\n%s", k.Name, strings.Join(stuck, "\n"))
	}
	if err := m.checkInvariants(); err != nil {
		return nil, fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
	}
	if k.Verify != nil {
		if err := k.Verify(m.img); err != nil {
			return nil, fmt.Errorf("gpu: kernel %q verification failed: %w", k.Name, err)
		}
	}
	return &Result{Metrics: m.collect(cores, end), Trace: rec}, nil
}
