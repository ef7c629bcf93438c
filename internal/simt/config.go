// Package simt models the GPU's SIMT cores: warp state, the modified SIMT
// stack that tracks aborted transactional lanes for retry (Fung et al.),
// greedy-then-oldest warp scheduling, the transactional-warp concurrency
// throttle, intra-warp conflict detection, redo-log bookkeeping, exponential
// backoff, and warp-level critical-section execution for the fine-grained
// lock baselines.
//
// A core executes one warp instruction per cycle. Memory instructions
// coalesce lanes and block the issuing warp until all lanes complete; the
// scheduler hides the latency with other warps — exactly the mechanism whose
// limits under lazy commit serialization the paper studies.
package simt

// Config holds per-core parameters (Table II).
type Config struct {
	// WarpsPerCore is the hardware warp count (48).
	WarpsPerCore int
	// MaxTxWarps throttles concurrent transactional warps per core
	// (0 = unlimited, the paper's "NL").
	MaxTxWarps int
	// IntraWarpCyclesPerEntry prices commit-time two-phase intra-warp
	// conflict resolution (lazy protocols).
	IntraWarpCyclesPerEntry int
	// BackoffBase and BackoffCap bound the probabilistically increasing
	// retry backoff (cycles).
	BackoffBase uint64
	BackoffCap  uint64
}

// DefaultConfig returns the paper's core setup.
func DefaultConfig() Config {
	return Config{
		WarpsPerCore:            48,
		MaxTxWarps:              0,
		IntraWarpCyclesPerEntry: 2,
		BackoffBase:             64,
		BackoffCap:              8192,
	}
}

// MemSystem is the core's path to the memory partitions for
// non-transactional traffic: coalesced global accesses and the atomics the
// lock baseline uses. The gpu package implements it over the crossbars.
type MemSystem interface {
	// Access performs a coalesced warp access: requests are issued per
	// distinct LLC line. For loads, done receives one value per element of
	// addrs; for stores, vals supplies the data and done receives nil.
	Access(core int, isWrite bool, addrs, vals []uint64, done func(loadVals []uint64))
	// AtomicCAS executes compare-and-swap at addr's home partition.
	AtomicCAS(core int, addr, compare, swap uint64, done func(old uint64, ok bool))
	// AtomicAdd executes an atomic add at addr's home partition.
	AtomicAdd(core int, addr, delta uint64, done func(old uint64))
}
