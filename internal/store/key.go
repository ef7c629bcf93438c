package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"getm/internal/gpu"
)

// Key returns the canonical content address for one simulation: the hex
// SHA-256 of SchemaVersion, the machine's keyConfig, and the workload
// parameters (benchmark, scale, seed). Only this package knows the key's
// JSON; the machine's config types carry no tags for it.
//
// cfg.Protocol is hashed as is: it is already the canonical identity
// (gpu.ProtocolOf), so a preset point keys as its legacy protocol name and
// stored sweeps stay warm, and any other matrix point as "policy:" plus its
// canonical axis tuple. Fields that cannot change a completed result are
// written as constants (keyConfig), so e.g. a traced run and an untraced run
// share a record: they are cycle-identical by construction.
func Key(cfg gpu.Config, bench string, scale float64, seed uint64) string {
	b, err := json.Marshal(keyOf(cfg))
	if err != nil {
		// keyConfig is plain data; this cannot happen. Degrade to a key that
		// never collides with a real one rather than panicking.
		return "unkeyable"
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s/v%d\n", magic, SchemaVersion)
	h.Write(b)
	fmt.Fprintf(h, "\n%s|%g|%d", bench, scale, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// keyConfig is the frozen schema of a machine's part of its content address.
// For every machine an edge can build, its JSON is byte for byte the JSON
// the store hashed when it marshaled gpu.Config itself, so the addresses on
// disk hold. Its field names, order and number types must never change: any
// such edit moves every address.
//
// Some fields cannot change a completed result. They are written as
// constants, whatever the config holds:
//   - Trace (null) and Record (false) only observe a run;
//   - CycleBudget (0): only complete results are stored, and a complete
//     result satisfies any budget;
//   - CancelChunk (0): chunked stepping is cycle-identical to one run;
//   - Shards (0): gpu.Config.Validate accepts only 0;
//   - WarpTM.Eager (false), like the other policy knobs, which the schema
//     never held (GETM.FirstWriterWins, GETM.RingArb, WarpTM.LocalArb):
//     policy.Build sets them from Protocol.
//
// Others are the historical values of fields the model has since deleted:
// Core.SerializeCyclesPerEntry and Core.LocalOpCycles 1, GETM.BackoffBase 64
// and GETM.BackoffCap 4096 (read by no code), the crossbar ports 0 (always
// derived from Cores and Partitions), and the top-level LineBytes, a copy of
// Partition.LineBytes.
//
// A future gpu.Config field that changes results enters the key as a new
// field here, tagged omitempty and left at its zero value while the config
// holds the field's default, so that every existing address holds and only
// a machine that sets it gets a new one. TestKeySensitivity fails until a
// new config field is either keyed or listed as unable to change results.
type keyConfig struct {
	Protocol    string
	Cores       int
	Partitions  int
	Core        keyCore
	Xbar        keyXbar
	Partition   keyPartition
	GETM        keyGETM
	WarpTM      keyWarpTM
	LineBytes   int
	Seed        uint64
	Record      bool
	MaxCycles   uint64
	CycleBudget uint64
	CancelChunk uint64
	Trace       *struct{}
	Shards      int
}

type keyCore struct {
	WarpsPerCore            int
	MaxTxWarps              int
	IntraWarpCyclesPerEntry int
	SerializeCyclesPerEntry int
	BackoffBase             uint64
	BackoffCap              uint64
	LocalOpCycles           uint64
}

type keyXbar struct {
	SrcPorts, DstPorts int
	Latency            uint64
	FlitBytes          int
}

type keyPartition struct {
	LLCBytes     int
	LLCWays      int
	LineBytes    int
	LLCLatency   uint64
	DRAMBanks    int
	DRAMLatency  uint64
	DRAMBankBusy uint64
	ServiceRate  int
}

type keyGETM struct {
	GranularityBytes    int
	PreciseEntries      int
	CuckooWays          int
	StashEntries        int
	MaxKicks            int
	ApproxEntries       int
	ApproxWays          int
	StallLines          int
	StallEntriesPerLine int
	CommitBytesPerCycle int
	TSBits              uint
	OverflowPenalty     uint64
	BackoffBase         uint64
	BackoffCap          uint64
}

type keyWarpTM struct {
	TCDEntries              int
	TCDWays                 int
	ValidateEntriesPerCycle int
	CommitBytesPerCycle     int
	MaxInFlight             int
	Eager                   bool
}

// keyOf fills the schema from a machine, field by field. Fields it leaves
// out are the constants keyConfig lists.
func keyOf(c gpu.Config) keyConfig {
	return keyConfig{
		Protocol:   string(c.Protocol),
		Cores:      c.Cores,
		Partitions: c.Partitions,
		Core: keyCore{
			WarpsPerCore:            c.Core.WarpsPerCore,
			MaxTxWarps:              c.Core.MaxTxWarps,
			IntraWarpCyclesPerEntry: c.Core.IntraWarpCyclesPerEntry,
			SerializeCyclesPerEntry: 1,
			BackoffBase:             c.Core.BackoffBase,
			BackoffCap:              c.Core.BackoffCap,
			LocalOpCycles:           1,
		},
		Xbar: keyXbar{
			Latency:   uint64(c.Xbar.Latency),
			FlitBytes: c.Xbar.FlitBytes,
		},
		Partition: keyPartition{
			LLCBytes:     c.Partition.LLCBytes,
			LLCWays:      c.Partition.LLCWays,
			LineBytes:    c.Partition.LineBytes,
			LLCLatency:   uint64(c.Partition.LLCLatency),
			DRAMBanks:    c.Partition.DRAMBanks,
			DRAMLatency:  c.Partition.DRAMLatency,
			DRAMBankBusy: c.Partition.DRAMBankBusy,
			ServiceRate:  c.Partition.ServiceRate,
		},
		GETM: keyGETM{
			GranularityBytes:    c.GETM.GranularityBytes,
			PreciseEntries:      c.GETM.PreciseEntries,
			CuckooWays:          c.GETM.CuckooWays,
			StashEntries:        c.GETM.StashEntries,
			MaxKicks:            c.GETM.MaxKicks,
			ApproxEntries:       c.GETM.ApproxEntries,
			ApproxWays:          c.GETM.ApproxWays,
			StallLines:          c.GETM.StallLines,
			StallEntriesPerLine: c.GETM.StallEntriesPerLine,
			CommitBytesPerCycle: c.GETM.CommitBytesPerCycle,
			TSBits:              c.GETM.TSBits,
			OverflowPenalty:     uint64(c.GETM.OverflowPenalty),
			BackoffBase:         64,
			BackoffCap:          4096,
		},
		WarpTM: keyWarpTM{
			TCDEntries:              c.WarpTM.TCDEntries,
			TCDWays:                 c.WarpTM.TCDWays,
			ValidateEntriesPerCycle: c.WarpTM.ValidateEntriesPerCycle,
			CommitBytesPerCycle:     c.WarpTM.CommitBytesPerCycle,
			MaxInFlight:             c.WarpTM.MaxInFlight,
		},
		LineBytes: c.Partition.LineBytes,
		Seed:      c.Seed,
		MaxCycles: uint64(c.MaxCycles),
	}
}
