// Package warptm implements the WarpTM baseline (Fung & Aamodt, MICRO 2013,
// building on KiloTM): lazy version management with lazy, value-based
// conflict detection, plus the temporal-conflict-detection (TCD) filter that
// lets read-only transactions commit silently.
//
// Commit protocol (paper §II-B, Fig 2 top): the committing warp's coalesced
// read+write log is sent to validation units at every LLC partition (empty
// messages keep the global commit-id sequence); each VU compares logged read
// values against current LLC contents; the core collects per-partition
// results, sends a commit/abort confirmation, and the commit units write the
// data and acknowledge. The warp resumes only after all acks — two full
// round trips on the critical path.
//
// Validation units pipeline non-overlapping transactions with KiloTM-style
// hazard checking: a transaction may start validating while earlier ones
// await their confirmation, unless its footprint overlaps an outstanding
// write set.
//
// The package also provides the paper's idealized eager-lazy variant
// (WarpTM-EL, §III): identical commit machinery, plus zero-latency
// validation of the read log at every transactional access, so doomed
// transactions abort at access time instead of discovering conflicts after
// the two-round-trip commit sequence.
package warptm

// Config sets WarpTM's structure sizes and costs.
type Config struct {
	// TCDEntries is the per-partition recency-filter capacity for last-write
	// physical timestamps.
	TCDEntries int
	// TCDWays is the filter associativity.
	TCDWays int
	// ValidateEntriesPerCycle is the VU's value-validation rate.
	ValidateEntriesPerCycle int
	// CommitBytesPerCycle is the CU's LLC write bandwidth.
	CommitBytesPerCycle int
	// MaxInFlight bounds validated-but-unconfirmed transactions per VU.
	// KiloTM's recently-validated buffer lets a transaction start validating
	// while non-overlapping predecessors await their confirmation round
	// trip; depth 4 reproduces that behaviour (and the paper's Table IV,
	// where WarpTM sometimes runs best at unlimited concurrency). Depth 1
	// gives the fully serialized commit sequence of the paper's simplified
	// §II-B prose; BenchmarkAblationCommitPipelining sweeps it.
	MaxInFlight int
	// Eager enables the idealized WarpTM-EL variant: instant validation of
	// the read log at every transactional access. Policy-matrix knob, set by
	// policy.Build.
	Eager bool
	// LocalArb drops the global in-order commit retirement (the ring token):
	// a core decides as soon as its own validation replies are in. The VU
	// hazard windows still order conflicting commits, so commit-id order
	// remains a valid serialization. Policy-matrix knob, set by
	// policy.Build.
	LocalArb bool
}

// DefaultConfig mirrors the paper's WarpTM setup.
func DefaultConfig() Config {
	return Config{
		TCDEntries:              1024,
		TCDWays:                 4,
		ValidateEntriesPerCycle: 1,
		CommitBytesPerCycle:     32,
		MaxInFlight:             2,
	}
}
