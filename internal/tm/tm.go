// Package tm defines the abstractions shared by all transactional-memory
// protocol implementations: per-warp transaction logs, abort causes, the
// protocol interface the SIMT core drives, message size constants for
// interconnect accounting, and a serializability checker used by the
// integration tests.
package tm

import (
	"fmt"

	"getm/internal/isa"
	"getm/internal/sim"
)

// AbortCause classifies why a thread-level transaction aborted.
type AbortCause uint8

// Abort causes. WAR means the transaction read a line written by a logically
// later transaction; WAWRAW means it tried to write a line read or written by
// a logically later transaction (GETM, Fig 6). Validation covers WarpTM's
// value-based validation failures. IntraWarp is a conflict with another lane
// of the same warp. StallFull means the GETM stall buffer had no space.
// EarlyAbort is EAPG's broadcast-triggered abort.
const (
	CauseNone AbortCause = iota
	CauseWAR
	CauseWAWRAW
	CauseValidation
	CauseIntraWarp
	CauseStallFull
	CauseEarlyAbort
)

var causeNames = [...]string{
	CauseNone: "none", CauseWAR: "war", CauseWAWRAW: "waw-raw",
	CauseValidation: "validation", CauseIntraWarp: "intra-warp",
	CauseStallFull: "stall-full", CauseEarlyAbort: "early-abort",
}

// NumCauses is the number of abort causes, CauseNone included: per-cause
// counters are arrays of this length indexed by AbortCause.
const NumCauses = len(causeNames)

func (c AbortCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Message payload sizes in bytes, used for crossbar traffic accounting.
const (
	AddrBytes   = 4 // 32-bit global addresses (Fermi generation)
	WordBytes   = 8 // data word
	TSBytes     = 8 // logical timestamp
	HeaderBytes = 8 // control header / ack

	// ReqBytes is a transactional access request (header + address + ts).
	ReqBytes = HeaderBytes + AddrBytes + TSBytes
	// ReplyBytes is an access reply carrying data.
	ReplyBytes = HeaderBytes + WordBytes
	// AbortReplyBytes carries the abort-cause timestamp back to the core.
	AbortReplyBytes = HeaderBytes + TSBytes
	// CommitEntryBytes is one write-log entry: address, data, write count.
	CommitEntryBytes = AddrBytes + WordBytes + 1
	// CleanupEntryBytes is one abort-log entry: address, write count.
	CleanupEntryBytes = AddrBytes + 1
	// ValidateEntryBytes is one WarpTM read-log entry: address + observed value.
	ValidateEntryBytes = AddrBytes + WordBytes
	// SignatureBytes is EAPG's idealized 64-bit broadcast signature.
	SignatureBytes = 8
)

// LogEntry records one transactional access by one lane.
type LogEntry struct {
	Lane  int
	Addr  uint64
	Value uint64
	// Writes counts coalesced writes to this address by this lane (GETM
	// sends it in the commit/cleanup log to balance #writes).
	Writes int
}

// TxLog is the per-warp redo log for one transaction attempt. Reads record
// the observed value (for value-based validation and the replay checker);
// writes record the new value.
//
// Read-own-write forwarding and intra-warp conflict detection run on one
// address table (a sim.Table, so a steady-state access allocates nothing):
// each word's slot holds its reader and writer lane masks and the heads of
// two chains, through Reads and through Writes, that link the word's
// entries (at most one of each per lane). A lane's lookup is one probe, and
// walks a chain only when the lane's bit says its entry is on it. The
// chains' links live in readNext/writeNext, parallel to Reads/Writes, so
// LogEntry keeps its size. Reset invalidates the table by bumping its
// generation and reuses all capacity across transaction attempts.
type TxLog struct {
	Reads  []LogEntry
	Writes []LogEntry

	// readNext[i] links Reads[i] to the next read of the same word: 1 + its
	// index, or 0 at the chain's end. writeNext does the same for Writes.
	readNext  []int32
	writeNext []int32
	words     sim.Table[txWord]

	// laneWrites counts write entries per lane (silent-commit checks read it
	// without walking the log).
	laneWrites [isa.WarpWidth]int32
}

// txWord is one word's slot: the lanes with a read and with a write entry
// for it, and the chains of those entries (1 + the newest entry's index in
// Reads or Writes; 0 for none).
type txWord struct {
	readers   isa.LaneMask
	writers   isa.LaneMask
	readHead  int32
	writeHead int32
}

// NewTxLog returns an empty log. Its address table is allocated on first
// use.
func NewTxLog() *TxLog { return &TxLog{} }

// Reset clears the log for a new transaction attempt, retaining capacity.
func (l *TxLog) Reset() {
	l.Reads = l.Reads[:0]
	l.Writes = l.Writes[:0]
	l.readNext = l.readNext[:0]
	l.writeNext = l.writeNext[:0]
	l.words.Reset()
	l.laneWrites = [isa.WarpWidth]int32{}
}

// laneEntry returns the index of lane's entry on the chain that starts at
// head. The caller has seen the lane's bit in the word's mask, so the entry
// is on the chain.
func laneEntry(entries []LogEntry, next []int32, head int32, lane int) int {
	i := head - 1
	for entries[i].Lane != lane {
		i = next[i] - 1
	}
	return int(i)
}

// RecordRead logs a globally observed read (not a forwarded own-write read).
// A lane's repeated read of a word is recorded once.
func (l *TxLog) RecordRead(lane int, addr, value uint64) {
	w := l.words.Ensure(addr)
	if w.readers.Bit(lane) {
		return
	}
	w.readers = w.readers.Set(lane)
	l.Reads = append(l.Reads, LogEntry{Lane: lane, Addr: addr, Value: value})
	l.readNext = append(l.readNext, w.readHead)
	w.readHead = int32(len(l.Reads))
}

// RecordWrite logs a write; repeated writes by the same lane to the same
// address update the value and bump the coalesced write count.
func (l *TxLog) RecordWrite(lane int, addr, value uint64) {
	w := l.words.Ensure(addr)
	if w.writers.Bit(lane) {
		e := &l.Writes[laneEntry(l.Writes, l.writeNext, w.writeHead, lane)]
		e.Value = value
		e.Writes++
		return
	}
	w.writers = w.writers.Set(lane)
	l.Writes = append(l.Writes, LogEntry{Lane: lane, Addr: addr, Value: value, Writes: 1})
	l.writeNext = append(l.writeNext, w.writeHead)
	w.writeHead = int32(len(l.Writes))
	l.laneWrites[lane]++
}

// ForwardLoad answers a lane's load of addr from the redo log, in one
// probe: the lane's own buffered write if it has one (read-own-write
// forwarding), else the value its earlier read observed, so repeated reads
// hit the redo log instead of the interconnect.
func (l *TxLog) ForwardLoad(lane int, addr uint64) (uint64, bool) {
	w := l.words.Find(addr)
	switch {
	case w == nil:
		return 0, false
	case w.writers.Bit(lane):
		return l.Writes[laneEntry(l.Writes, l.writeNext, w.writeHead, lane)].Value, true
	case w.readers.Bit(lane):
		return l.Reads[laneEntry(l.Reads, l.readNext, w.readHead, lane)].Value, true
	}
	return 0, false
}

// LaneWriteCount returns the number of distinct words the lane has written
// (WarpTM's silent read-only commit check, without walking the log).
func (l *TxLog) LaneWriteCount(lane int) int { return int(l.laneWrites[lane]) }

// Conflicts returns the other lanes whose logged accesses conflict with the
// given access (same word, at least one side writing).
func (l *TxLog) Conflicts(lane int, addr uint64, isWrite bool) isa.LaneMask {
	w := l.words.Find(addr)
	if w == nil {
		return 0
	}
	m := w.writers
	if isWrite {
		m |= w.readers
	}
	return m.Clear(lane)
}

// LaneEntries returns the lane's read and write entries. It allocates and is
// meant for cold paths (the replay checker's Record mode); hot paths iterate
// Reads/Writes directly or use LaneWriteCount.
func (l *TxLog) LaneEntries(lane int) (reads, writes []LogEntry) {
	for _, e := range l.Reads {
		if e.Lane == lane {
			reads = append(reads, e)
		}
	}
	for _, e := range l.Writes {
		if e.Lane == lane {
			writes = append(writes, e)
		}
	}
	return reads, writes
}

// WarpTx identifies one warp-level transaction attempt to a protocol.
type WarpTx struct {
	// GWID is the global warp id (unique across cores); it is the lock owner
	// id in GETM.
	GWID int
	// Core is the SIMT core index (the down-crossbar port for replies).
	Core int
	// Log is the attempt's redo log.
	Log *TxLog
	// StartCycle is when this attempt began (WarpTM's TCD read-only check).
	StartCycle sim.Cycle
}

// LaneAccess is one lane's slice of a warp memory instruction.
type LaneAccess struct {
	Lane  int
	Addr  uint64
	Value uint64 // store data (ignored for loads)
}

// AccessResult is the protocol's per-lane answer to a transactional access.
type AccessResult struct {
	Lane  int
	Value uint64 // loaded data
	Abort bool
	Cause AbortCause
	// AbortTS is the newest logical timestamp observed at the LLC, used by
	// GETM to advance warpts past the conflict.
	AbortTS uint64
}

// CommitOutcome reports per-lane commit results.
type CommitOutcome struct {
	// FailedLanes holds lanes whose transactions failed commit-time
	// validation (empty for GETM: eager detection guarantees success).
	FailedLanes isa.LaneMask
	Cause       AbortCause
	// AbortTS advances warpts for GETM aborts handled at commit.
	AbortTS uint64
}

// Protocol is the SIMT-core-side interface to a TM implementation. All
// methods are called from engine events; completions are delivered via
// callbacks on later events.
type Protocol interface {
	// Name identifies the protocol ("getm", "warptm", "warptm-el", "eapg").
	Name() string

	// EagerIntraWarp reports whether intra-warp conflicts are checked at
	// access time (GETM) rather than resolved at commit time (WarpTM).
	EagerIntraWarp() bool

	// Begin opens a transaction attempt for the warp.
	Begin(w *WarpTx)

	// Access performs a transactional load (isWrite false) or store for the
	// given lanes, at most one entry per lane. done is invoked once per
	// call, after every lane has an outcome (including lanes that had to
	// wait in a stall buffer), with one result per entry of lanes, in its
	// order.
	Access(w *WarpTx, isWrite bool, lanes []LaneAccess, done func([]AccessResult))

	// Commit finishes the warp's transaction: commits lanes in commitMask
	// and cleans up after lanes in abortMask (their reservations/log
	// entries). resume is invoked when the warp may continue executing —
	// immediately after log transmission for GETM (off the critical path),
	// or after the validation/commit round trips for WarpTM. For lazy
	// protocols the outcome may fail lanes that eager protocols would have
	// aborted earlier.
	Commit(w *WarpTx, commitMask, abortMask isa.LaneMask, resume func(CommitOutcome))
}

// AbortNotice lets a protocol asynchronously abort lanes between accesses
// (EAPG's broadcast early aborts). Cores register a sink per warp.
type AbortNotice struct {
	GWID  int
	Lanes isa.LaneMask
	Cause AbortCause
}

// AsyncAborter is implemented by protocols that can abort transactions
// asynchronously; the core registers a callback to receive notices.
type AsyncAborter interface {
	SetAbortSink(func(AbortNotice))
}
