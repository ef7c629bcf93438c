package getm

// The context-aware v2 experiment API. Everything here is additive: the v1
// entry points (Run, RunExperiment) remain as thin wrappers, and future
// releases may add Options fields and functional options but will not change
// the meaning of existing ones.

import (
	"context"
	"errors"
	"fmt"

	"getm/internal/harness"
	"getm/internal/store"
	"getm/internal/workloads"
)

// expConfig collects the functional options for RunExperimentContext.
type expConfig struct {
	scale    float64
	workers  int
	storeDir string
	resume   bool
	shards   int
	policy   Policy
}

// Option configures RunExperimentContext.
type Option func(*expConfig)

// WithScale sets the workload scale (1.0 = full reproduction scale, as is
// 0). Any other scale must be finite and positive, or RunExperimentContext
// returns an error matching ErrInvalidConfig.
func WithScale(s float64) Option {
	return func(c *expConfig) { c.scale = s }
}

// WithWorkers precomputes the experiment grid on n parallel workers before
// assembling the report (n <= 1 runs everything sequentially on demand).
// Simulations are deterministic and deduplicated, so the worker count changes
// wall-clock time only, never results.
func WithWorkers(n int) Option {
	return func(c *expConfig) { c.workers = n }
}

// WithStore attaches a durable result store at dir: completed simulations are
// persisted crash-safely, and cells already present (from this or any earlier
// process) are reused instead of re-simulated, so an interrupted experiment
// resumed against the same dir re-runs only the missing cells and renders a
// byte-identical report. An unwritable dir degrades to no persistence rather
// than failing. Corrupt or truncated records are detected and re-simulated.
func WithStore(dir string) Option {
	return func(c *expConfig) {
		c.storeDir = dir
		c.resume = true
	}
}

// WithShards once ran simulation cells on a parallel engine that has since
// been removed. n <= 0 changes nothing; n > 0 makes RunExperimentContext
// return an error rather than silently run serial.
//
// Deprecated: every simulation runs on the serial engine. The option stays
// only because this API is additive.
func WithShards(n int) Option {
	return func(c *expConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithPolicy pins every transactional simulation cell of the experiment
// grid to one protocol-matrix point (the fglock cells are untouched — locks
// are not a TM policy). Pinning a preset — WithPolicy(GETM()) and so on —
// changes nothing versus the protocol's name-based cells, including store
// content addresses; pinning any other point from Policies() re-runs the
// experiment's protocol rows under that point, which collapses
// protocol-comparison experiments to a single behaviour by design. Invalid
// combinations fail RunExperimentContext with an error matching
// ErrInvalidPolicy.
func WithPolicy(p Policy) Option {
	return func(c *expConfig) { c.policy = p }
}

// RunExperimentContext regenerates one of the paper's figures or tables
// (see Experiments) and returns the rendered report, honouring ctx: a cancel
// or deadline stops in-flight simulations within one chunk of simulated
// cycles and returns an error matching ErrCanceled. Unknown ids return an
// error matching ErrUnknownExperiment, a bad scale ErrInvalidConfig.
func RunExperimentContext(ctx context.Context, id string, opts ...Option) (string, error) {
	var c expConfig
	for _, o := range opts {
		o(&c)
	}
	if c.scale == 0 {
		c.scale = 1
	}

	e, ok := harness.ByID(id)
	if !ok {
		return "", fmt.Errorf("%w %q (want one of %v)", ErrUnknownExperiment, id, experimentIDs())
	}
	if !c.policy.IsZero() {
		if err := c.policy.Validate(); err != nil {
			return "", fmt.Errorf("getm: experiment %s: %w", id, err)
		}
	}
	if err := (workloads.Params{Scale: c.scale}).Validate(); err != nil {
		return "", fmt.Errorf("getm: experiment %s: %w", id, err)
	}
	if c.shards > 0 {
		return "", fmt.Errorf("getm: experiment %s: WithShards(%d): the sharded engine was removed, so only n <= 0 is accepted", id, c.shards)
	}

	r := harness.NewRunner(c.scale)
	r.Ctx = ctx
	r.Policy = c.policy.internal()
	if c.storeDir != "" {
		r.Store = store.Open(c.storeDir)
		r.StoreReuse = c.resume
	}
	if c.workers > 1 {
		// Precompute failures are recorded in r.Err(); cancellation is
		// detected below and other failures degrade to zero rows, exactly
		// like the sequential path.
		_ = harness.Precompute(r, c.workers)
		if err := ctx.Err(); err != nil {
			return "", fmt.Errorf("getm: experiment %s: %w", id, errors.Join(ErrCanceled, context.Cause(ctx)))
		}
	}

	out := e.Run(r).String()
	if err := r.Err(); errors.Is(err, ErrCanceled) {
		return "", fmt.Errorf("getm: experiment %s: %w", id, err)
	}
	return out, nil
}
