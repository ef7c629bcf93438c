package getm

import (
	"errors"

	"getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/workloads"
)

// Typed errors for the public API, usable with errors.Is. The v2 surface
// guarantees these identities are stable: validation failures and
// cancellations always wrap the matching sentinel, never a bare string.
var (
	// ErrUnknownProtocol reports an Options.Protocol outside Protocols().
	ErrUnknownProtocol = errors.New("getm: unknown protocol")
	// ErrUnknownBenchmark reports an Options.Benchmark outside Benchmarks().
	ErrUnknownBenchmark = workloads.ErrUnknownBenchmark
	// ErrInvalidConfig reports an Options field or WithScale out of range.
	ErrInvalidConfig = gpu.ErrInvalidConfig
	// ErrUnknownExperiment reports an experiment id outside Experiments().
	ErrUnknownExperiment = errors.New("getm: unknown experiment")
	// ErrInvalidPolicy reports a Policy combination outside Policies(): an
	// axis value outside its enumeration, or an unimplementable composition
	// (eager version management with lazy detection or requester-wins
	// resolution; lazy version management with timestamp-order resolution).
	// Every policy validation failure — API, CLI, or serve — wraps it.
	ErrInvalidPolicy = policy.ErrInvalid
	// ErrCanceled reports a run cut short by context cancellation or a
	// deadline. The context's own cause is joined into the returned error,
	// so errors.Is(err, context.Canceled) or context.DeadlineExceeded also
	// hold as appropriate, and the partial Metrics returned alongside carry
	// Truncated == true.
	ErrCanceled = gpu.ErrCanceled
)
