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
// The lookup structures behind read-own-write forwarding and intra-warp
// conflict detection are flat open-addressed tables rather than Go maps, so
// a steady-state access allocates nothing: entries live in the append-only
// Reads/Writes slices, a (lane, addr)-keyed index maps each access to its
// entry, and an addr-keyed table holds the per-word reader/writer lane
// masks. Reset invalidates both tables by bumping a generation counter and
// reuses all capacity across transaction attempts.
type TxLog struct {
	Reads  []LogEntry
	Writes []LogEntry

	idx      []txIdxEntry  // (lane, addr) -> entry indices
	addrTab  []txAddrEntry // addr -> reader/writer masks
	gen      uint32
	idxUsed  int
	addrUsed int

	// laneWrites counts write entries per lane (silent-commit checks read it
	// without walking the log).
	laneWrites [isa.WarpWidth]int32
}

// laneAddr keys a single lane's access to one word (tests model the log's
// forwarding contract with it).
type laneAddr struct {
	lane int
	addr uint64
}

// txIdxEntry is one slot of the (lane, addr) index. A slot is live when its
// gen matches the log's; readIdx/writeIdx of -1 mean the lane has no such
// entry yet.
type txIdxEntry struct {
	gen      uint32
	lane     int32
	addr     uint64
	readIdx  int32
	writeIdx int32
}

// txAddrEntry is one slot of the per-address mask table.
type txAddrEntry struct {
	gen     uint32
	addr    uint64
	readers isa.LaneMask
	writers isa.LaneMask
}

// Table sizing: start big enough for typical transaction footprints (a few
// words per lane) and keep load factor below 3/4 on growth.
const txLogInitialSlots = 64

// NewTxLog returns an empty log. The index tables are allocated lazily on
// first use, so warps that never run transactions (lock kernels) pay nothing.
func NewTxLog() *TxLog {
	return &TxLog{gen: 1}
}

// Reset clears the log for a new transaction attempt, retaining capacity.
func (l *TxLog) Reset() {
	l.Reads = l.Reads[:0]
	l.Writes = l.Writes[:0]
	l.bumpGen()
	l.laneWrites = [isa.WarpWidth]int32{}
}

// bumpGen invalidates every table slot in O(1); on the (astronomically rare)
// uint32 wrap it falls back to clearing the slots so stale generations can
// never read as live.
func (l *TxLog) bumpGen() {
	l.gen++
	l.idxUsed, l.addrUsed = 0, 0
	if l.gen == 0 {
		clear(l.idx)
		clear(l.addrTab)
		l.gen = 1
	}
}

func txHash(lane int, addr uint64) uint64 {
	return sim.Mix64(addr ^ uint64(lane)*0x9E3779B97F4A7C15)
}

// idxFind returns the live (lane, addr) slot, or nil.
func (l *TxLog) idxFind(lane int, addr uint64) *txIdxEntry {
	if len(l.idx) == 0 {
		return nil
	}
	mask := uint64(len(l.idx) - 1)
	for h := txHash(lane, addr) & mask; ; h = (h + 1) & mask {
		e := &l.idx[h]
		if e.gen != l.gen {
			return nil
		}
		if e.addr == addr && e.lane == int32(lane) {
			return e
		}
	}
}

// idxEnsure returns the live slot for (lane, addr), inserting a fresh one
// (readIdx/writeIdx -1) if absent, growing the table as needed.
func (l *TxLog) idxEnsure(lane int, addr uint64) *txIdxEntry {
	if len(l.idx) == 0 {
		l.idx = make([]txIdxEntry, txLogInitialSlots)
	} else if (l.idxUsed+1)*4 > len(l.idx)*3 {
		l.growIdx()
	}
	mask := uint64(len(l.idx) - 1)
	for h := txHash(lane, addr) & mask; ; h = (h + 1) & mask {
		e := &l.idx[h]
		if e.gen != l.gen {
			*e = txIdxEntry{gen: l.gen, lane: int32(lane), addr: addr, readIdx: -1, writeIdx: -1}
			l.idxUsed++
			return e
		}
		if e.addr == addr && e.lane == int32(lane) {
			return e
		}
	}
}

func (l *TxLog) growIdx() {
	old := l.idx
	l.idx = make([]txIdxEntry, 2*len(old))
	mask := uint64(len(l.idx) - 1)
	for i := range old {
		e := &old[i]
		if e.gen != l.gen {
			continue
		}
		h := txHash(int(e.lane), e.addr) & mask
		for l.idx[h].gen == l.gen {
			h = (h + 1) & mask
		}
		l.idx[h] = *e
	}
}

// addrFind returns the live mask slot for addr, or nil.
func (l *TxLog) addrFind(addr uint64) *txAddrEntry {
	if len(l.addrTab) == 0 {
		return nil
	}
	mask := uint64(len(l.addrTab) - 1)
	for h := sim.Mix64(addr) & mask; ; h = (h + 1) & mask {
		e := &l.addrTab[h]
		if e.gen != l.gen {
			return nil
		}
		if e.addr == addr {
			return e
		}
	}
}

// addrEnsure returns the live mask slot for addr, inserting if absent.
func (l *TxLog) addrEnsure(addr uint64) *txAddrEntry {
	if len(l.addrTab) == 0 {
		l.addrTab = make([]txAddrEntry, txLogInitialSlots)
	} else if (l.addrUsed+1)*4 > len(l.addrTab)*3 {
		l.growAddrTab()
	}
	mask := uint64(len(l.addrTab) - 1)
	for h := sim.Mix64(addr) & mask; ; h = (h + 1) & mask {
		e := &l.addrTab[h]
		if e.gen != l.gen {
			*e = txAddrEntry{gen: l.gen, addr: addr}
			l.addrUsed++
			return e
		}
		if e.addr == addr {
			return e
		}
	}
}

func (l *TxLog) growAddrTab() {
	old := l.addrTab
	l.addrTab = make([]txAddrEntry, 2*len(old))
	mask := uint64(len(l.addrTab) - 1)
	for i := range old {
		e := &old[i]
		if e.gen != l.gen {
			continue
		}
		h := sim.Mix64(e.addr) & mask
		for l.addrTab[h].gen == l.gen {
			h = (h + 1) & mask
		}
		l.addrTab[h] = *e
	}
}

// RecordRead logs a globally observed read (not a forwarded own-write read).
func (l *TxLog) RecordRead(lane int, addr, value uint64) {
	e := l.idxEnsure(lane, addr)
	if e.readIdx < 0 {
		e.readIdx = int32(len(l.Reads))
		l.Reads = append(l.Reads, LogEntry{Lane: lane, Addr: addr, Value: value})
	}
	a := l.addrEnsure(addr)
	a.readers = a.readers.Set(lane)
}

// ForwardRead returns the value a lane's earlier read of addr observed, so
// repeated reads hit the redo log instead of the interconnect.
func (l *TxLog) ForwardRead(lane int, addr uint64) (uint64, bool) {
	if e := l.idxFind(lane, addr); e != nil && e.readIdx >= 0 {
		return l.Reads[e.readIdx].Value, true
	}
	return 0, false
}

// RecordWrite logs a write; repeated writes by the same lane to the same
// address update the value and bump the coalesced write count.
func (l *TxLog) RecordWrite(lane int, addr, value uint64) {
	e := l.idxEnsure(lane, addr)
	if e.writeIdx >= 0 {
		w := &l.Writes[e.writeIdx]
		w.Value = value
		w.Writes++
	} else {
		e.writeIdx = int32(len(l.Writes))
		l.Writes = append(l.Writes, LogEntry{Lane: lane, Addr: addr, Value: value, Writes: 1})
		l.laneWrites[lane]++
	}
	a := l.addrEnsure(addr)
	a.writers = a.writers.Set(lane)
}

// Forward returns the lane's own buffered write to addr, if any
// (read-own-write forwarding from the redo log).
func (l *TxLog) Forward(lane int, addr uint64) (uint64, bool) {
	if e := l.idxFind(lane, addr); e != nil && e.writeIdx >= 0 {
		return l.Writes[e.writeIdx].Value, true
	}
	return 0, false
}

// HasRead reports whether the lane already has a logged read of addr.
func (l *TxLog) HasRead(lane int, addr uint64) bool {
	e := l.idxFind(lane, addr)
	return e != nil && e.readIdx >= 0
}

// LaneWriteCount returns the number of distinct words the lane has written
// (WarpTM's silent read-only commit check, without walking the log).
func (l *TxLog) LaneWriteCount(lane int) int { return int(l.laneWrites[lane]) }

// Conflicts returns the other lanes whose logged accesses conflict with the
// given access (same word, at least one side writing).
func (l *TxLog) Conflicts(lane int, addr uint64, isWrite bool) isa.LaneMask {
	a := l.addrFind(addr)
	if a == nil {
		return 0
	}
	m := a.writers
	if isWrite {
		m |= a.readers
	}
	return m.Clear(lane)
}

// DropLane removes a lane's entries (after an intra-warp or eager abort the
// lane's accesses are replayed from scratch on retry). Write entries are
// retained in the cleanup set by the caller before dropping. The index
// tables are rebuilt from the surviving entries.
func (l *TxLog) DropLane(lane int) {
	filter := func(entries []LogEntry) []LogEntry {
		out := entries[:0]
		for _, e := range entries {
			if e.Lane != lane {
				out = append(out, e)
			}
		}
		return out
	}
	l.Reads = filter(l.Reads)
	l.Writes = filter(l.Writes)
	l.rebuildIndex()
}

// rebuildIndex reconstructs both tables and the per-lane write counts from
// the Reads/Writes slices (abort path only; never on the access hot path).
func (l *TxLog) rebuildIndex() {
	l.bumpGen()
	l.laneWrites = [isa.WarpWidth]int32{}
	for i := range l.Reads {
		e := &l.Reads[i]
		ie := l.idxEnsure(e.Lane, e.Addr)
		ie.readIdx = int32(i)
		a := l.addrEnsure(e.Addr)
		a.readers = a.readers.Set(e.Lane)
	}
	for i := range l.Writes {
		e := &l.Writes[i]
		ie := l.idxEnsure(e.Lane, e.Addr)
		ie.writeIdx = int32(i)
		a := l.addrEnsure(e.Addr)
		a.writers = a.writers.Set(e.Lane)
		l.laneWrites[e.Lane]++
	}
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
