// Package core implements GETM, the paper's contribution: a GPU hardware
// transactional memory with eager conflict detection and lazy versioning.
//
// GETM tracks, per metadata granule, a write timestamp (wts), a read
// timestamp (rts), a write-reservation count (#writes) and the reserving
// warp (owner). Each transactional access is checked at the home partition's
// validation unit as it happens (Fig 6), so a transaction reaching txcommit
// is guaranteed to succeed and the commit is off the critical path: the core
// transmits the write log and the warp continues immediately.
//
// The package provides the validation-unit metadata tables (4-way cuckoo
// hash + stash + overflow, plus an approximate recency bloom filter, Fig 8),
// the stall buffer (Fig 9), the commit unit with 32-byte coalescing, the
// core-side protocol driver (warpts management, log transmission), and the
// logical-timestamp rollover protocol.
package core

import "getm/internal/sim"

// Config holds GETM's structure sizes and timing (Table II, "Transactional
// memory support").
type Config struct {
	// GranularityBytes is the conflict-detection granule (32 B default;
	// Fig 14 sweeps 16–128).
	GranularityBytes int
	// PreciseEntries is the GPU-wide precise metadata capacity (4K default;
	// Fig 14 sweeps 2K/4K/8K). Each partition gets an equal share.
	PreciseEntries int
	// CuckooWays is the number of hash ways (4).
	CuckooWays int
	// StashEntries is the fully associative stash size per partition (4).
	StashEntries int
	// MaxKicks bounds a cuckoo insertion's displacement chain.
	MaxKicks int
	// ApproxEntries is the GPU-wide approximate-table capacity (1K).
	ApproxEntries int
	// ApproxWays is the number of bloom ways (4).
	ApproxWays int
	// StallLines and StallEntriesPerLine size each partition's stall buffer
	// (4 lines × 4 entries).
	StallLines          int
	StallEntriesPerLine int
	// CommitBytesPerCycle is the commit unit's LLC write bandwidth (32).
	CommitBytesPerCycle int
	// TSBits is the logical timestamp width; rollover triggers near
	// 2^TSBits. 64 disables rollover in practice.
	TSBits uint
	// OverflowPenalty is the extra access latency (cycles) when the precise
	// table spills to the in-memory overflow list.
	OverflowPenalty sim.Cycle

	// FirstWriterWins switches the resolution policy of the Fig 6 flowchart:
	// instead of queueing a younger requester in the stall buffer while the
	// granule is write-reserved (paper GETM, timestamp order), the holder of
	// the reservation wins outright and the requester aborts. Policy-matrix
	// knob, set by policy.Build.
	FirstWriterWins bool
	// RingArb makes commit a ring-arbitrated round trip: the warp resumes
	// only after every partition's commit unit has acknowledged its slice of
	// the write log, instead of GETM's off-critical-path fire-and-forget
	// commit. Policy-matrix knob, set by policy.Build.
	RingArb bool
}

// DefaultConfig returns the paper's Table II settings.
func DefaultConfig() Config {
	return Config{
		GranularityBytes:    32,
		PreciseEntries:      4096,
		CuckooWays:          4,
		StashEntries:        4,
		MaxKicks:            8,
		ApproxEntries:       1024,
		ApproxWays:          4,
		StallLines:          4,
		StallEntriesPerLine: 4,
		CommitBytesPerCycle: 32,
		TSBits:              64,
		OverflowPenalty:     20,
	}
}

// GranuleOf maps a byte address to its metadata granule id.
func (c Config) GranuleOf(addr uint64) uint64 {
	return addr / uint64(c.GranularityBytes)
}

// RolloverThreshold is the timestamp value at which a validation unit
// initiates the rollover protocol.
func (c Config) RolloverThreshold() uint64 {
	if c.TSBits >= 64 {
		return ^uint64(0)
	}
	limit := uint64(1) << c.TSBits
	return limit - limit/8 // start the protocol with 12.5% headroom left
}
