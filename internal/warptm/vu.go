package warptm

import (
	"fmt"
	"slices"

	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
)

// ValidationMsg is one transaction's slice of read/write log entries sent to
// a partition's validation unit. Every global commit id is sent to every
// partition — empty messages keep the id sequence so the VUs stay in
// lockstep (as in KiloTM).
type ValidationMsg struct {
	CID    uint64
	Core   int
	Reads  []tm.LogEntry
	Writes []tm.LogEntry
	// Reply delivers the lanes whose reads failed value validation here.
	Reply func(failed isa.LaneMask)
}

// txState is one transaction's validation and commit at a VU, from its start
// to its ack. Pooled per VU: the validate and apply events are built once
// and reach the VU through v, which only a state in use has, and the write
// set keeps its capacity across commits. msg is the commit's pooled message,
// which outlives the txState (the protocol recycles it only after this VU's
// ack).
type txState struct {
	v         *VU
	msg       *ValidationMsg
	validated bool
	// The core's decision (Confirm): lanes that commit, and the ack.
	confirmed   bool
	commitLanes isa.LaneMask
	done        func()
	wrote       bool       // some committed write reached this commit unit
	writeSet    tm.AddrSet // the hazard window: msg's write addresses

	validateFn func() // validation pipeline completion
	applyFn    func() // commit unit write completion
	next       *txState
}

// retireEv is an empty subcommit's one-cycle reply, pooled per VU.
type retireEv struct {
	v     *VU
	reply func(failed isa.LaneMask)
	fn    func()
	next  *retireEv
}

// VU is a WarpTM validation/commit unit at one LLC partition. Transactions
// validate in global commit-id order; a transaction whose footprint does not
// overlap any validated-but-unconfirmed write set may start validating while
// its predecessors await confirmation (KiloTM-style hazard pipelining).
type VU struct {
	cfg  Config
	eng  *sim.Engine
	part *mem.Partition
	tcd  *TCD

	// nextID is the next commit id to start; pending holds the messages
	// that arrived ahead of it, and inFlight the started, unacknowledged
	// transactions in start order (at most MaxInFlight). Both live in
	// vuBooks, which outlive the VU.
	nextID uint64
	*vuBooks
	busyTill sim.Cycle

	// Freelists (single goroutine per machine — no locking).
	statePool  *txState
	retirePool *retireEv

	Validations    uint64
	FailedEntries  uint64
	CommitsApplied uint64
	HazardStalls   uint64
}

// vuBooks is a VU's growable bookkeeping: the pending ring keyed by commit
// id, the in-flight list and maybeApply's 32-byte region set. It outlives
// its VU (DESIGN §6): Protocol.Recycle clears its pointers and stocks it.
type vuBooks struct {
	pending  idRing[ValidationMsg]
	inFlight []*txState
	regions  tm.AddrSet
}

// books holds finished VUs' bookkeeping for the next VUs built in this
// process, on any goroutine.
var books sim.Holder[*vuBooks]

// NewVU builds a validation unit over one partition.
func NewVU(cfg Config, eng *sim.Engine, part *mem.Partition, rng *sim.RNG) *VU {
	b := books.Get()
	if b == nil {
		b = &vuBooks{}
	}
	return &VU{
		cfg:     cfg,
		eng:     eng,
		part:    part,
		tcd:     NewTCD(cfg.TCDWays, cfg.TCDEntries, rng),
		vuBooks: b,
	}
}

// recycle hands the VU's filter arrays, free lists and bookkeeping to the
// next VU built in this process. The VU must not run afterwards.
func (v *VU) recycle() {
	v.tcd.Recycle()
	stateStock.Put(v.statePool)
	retireStock.Put(v.retirePool)
	v.statePool, v.retirePool = nil, nil
	// A run cut short leaves messages and states in the books; neither may
	// keep the machine alive.
	b := v.vuBooks
	clear(b.pending.slots)
	clear(b.inFlight)
	b.inFlight = b.inFlight[:0]
	v.vuBooks = nil
	books.Put(b)
}

func (v *VU) getTxState(msg *ValidationMsg) *txState {
	st := v.statePool
	if st == nil {
		st = stateStock.Get()
	}
	if st == nil {
		st = &txState{}
		st.validateFn = func() { st.v.finishValidate(st) }
		st.applyFn = func() { st.v.finishApply(st) }
	} else {
		v.statePool = st.next
	}
	st.v, st.msg = v, msg
	return st
}

func (v *VU) putTxState(st *txState) {
	st.v, st.msg, st.done = nil, nil, nil
	st.validated, st.confirmed, st.wrote = false, false, false
	st.writeSet.Reset()
	st.next = v.statePool
	v.statePool = st
}

// retire schedules an empty subcommit's reply one cycle from now.
func (v *VU) retire(reply func(failed isa.LaneMask)) {
	r := v.retirePool
	if r == nil {
		r = retireStock.Get()
	}
	if r == nil {
		r = &retireEv{}
		r.fn = func() {
			reply, v := r.reply, r.v
			r.v, r.reply = nil, nil
			r.next = v.retirePool
			v.retirePool = r
			reply(0)
		}
	} else {
		v.retirePool = r.next
	}
	r.v, r.reply = v, reply
	v.eng.Schedule(1, r.fn)
}

// TCD exposes the partition's temporal-conflict filter (loads query it).
func (v *VU) TCD() *TCD { return v.tcd }

// Submit delivers a validation message (on up-crossbar arrival).
func (v *VU) Submit(msg *ValidationMsg) {
	if msg.CID < v.nextID {
		panic(fmt.Sprintf("warptm: commit id %d arrived after id advanced to %d", msg.CID, v.nextID))
	}
	v.pending.put(v.nextID, msg.CID, msg)
	v.tryStart()
}

// hazard reports whether msg's footprint overlaps any unconfirmed write set.
func (v *VU) hazard(msg *ValidationMsg) bool {
	for _, st := range v.inFlight {
		if st.writeSet.Len() == 0 {
			continue
		}
		for _, e := range msg.Reads {
			if st.writeSet.Has(e.Addr) {
				return true
			}
		}
		for _, e := range msg.Writes {
			if st.writeSet.Has(e.Addr) {
				return true
			}
		}
	}
	return false
}

// tryStart begins validating transactions at the head of the id sequence.
// Empty subcommits (this partition holds none of the transaction's
// footprint) retire immediately after bumping the sequence, as in KiloTM —
// they must keep the id order but need no validation, confirmation, or
// commit-unit slot.
func (v *VU) tryStart() {
	for {
		msg := v.pending.get(v.nextID)
		if msg == nil {
			return
		}
		if len(msg.Reads) == 0 && len(msg.Writes) == 0 {
			v.pending.del(v.nextID)
			v.nextID++
			v.retire(msg.Reply)
			continue
		}
		if len(v.inFlight) >= v.cfg.MaxInFlight {
			return
		}
		if v.hazard(msg) {
			v.HazardStalls++
			return
		}
		v.pending.del(v.nextID)
		v.nextID++
		st := v.getTxState(msg)
		for _, e := range msg.Writes {
			st.writeSet.Add(e.Addr)
		}
		v.inFlight = append(v.inFlight, st)
		v.validate(st)
	}
}

// validate charges the value-validation pipeline cost and compares logged
// read values with current LLC contents at completion.
func (v *VU) validate(st *txState) {
	v.Validations++
	start := v.eng.Now()
	if v.busyTill > start {
		start = v.busyTill
	}
	entries := len(st.msg.Reads)
	rate := v.cfg.ValidateEntriesPerCycle
	cycles := sim.Cycle((entries + rate - 1) / rate)
	if cycles == 0 {
		cycles = 1
	}
	// One pipelined LLC access latency for the batch, plus per-entry cycles.
	var llc sim.Cycle
	if entries > 0 {
		llc = v.part.AccessDelay(st.msg.Reads[0].Addr)
	}
	v.busyTill = start + cycles
	v.eng.At(start+cycles+llc, st.validateFn)
}

// finishValidate completes st's validation: logged read values are compared
// with the current LLC contents and the failed lanes go back to the core.
func (v *VU) finishValidate(st *txState) {
	var failed isa.LaneMask
	for _, e := range st.msg.Reads {
		v.part.LLC.Access(e.Addr)
		if v.part.ReadNow(e.Addr) != e.Value {
			failed = failed.Set(e.Lane)
			v.FailedEntries++
		}
	}
	st.validated = true
	st.msg.Reply(failed)
	v.maybeApply(st)
}

// Confirm delivers the core's commit/abort decision for cid: lanes in
// commitLanes commit their writes; everything else is dropped. done fires
// after the data is written (the ack).
func (v *VU) Confirm(cid uint64, commitLanes isa.LaneMask, done func()) {
	var st *txState
	for _, s := range v.inFlight {
		if s.msg.CID == cid {
			st = s
			break
		}
	}
	if st == nil {
		panic(fmt.Sprintf("warptm: confirm for unknown commit id %d", cid))
	}
	st.confirmed, st.commitLanes, st.done = true, commitLanes, done
	v.maybeApply(st)
}

// maybeApply charges the commit unit's write bandwidth once both the
// validation and the confirmation have arrived, then releases the hazard
// window and acknowledges. (The data itself was applied atomically at the
// core's decision instant — see Protocol.finishCommit.)
func (v *VU) maybeApply(st *txState) {
	if !st.validated || !st.confirmed {
		return
	}
	// Coalesce committed writes into 32-byte regions for bandwidth cost.
	v.regions.Reset()
	for _, e := range st.msg.Writes {
		if st.commitLanes.Bit(e.Lane) {
			v.regions.Add(e.Addr / 32)
			st.wrote = true
		}
	}
	bytes := v.regions.Len() * 32
	cycles := sim.Cycle((bytes + v.cfg.CommitBytesPerCycle - 1) / v.cfg.CommitBytesPerCycle)
	if cycles == 0 {
		cycles = 1
	}
	start := v.eng.Now()
	if v.busyTill > start {
		start = v.busyTill
	}
	v.busyTill = start + cycles
	v.eng.At(start+cycles, st.applyFn)
}

// finishApply completes st's commit-unit writes: the hazard window closes, the
// txState is recycled, and the ack goes out.
func (v *VU) finishApply(st *txState) {
	for _, e := range st.msg.Writes {
		if st.commitLanes.Bit(e.Lane) {
			v.part.LLC.Access(e.Addr)
		}
	}
	if st.wrote {
		v.CommitsApplied++
	}
	done := st.done
	i := slices.Index(v.inFlight, st)
	v.inFlight = slices.Delete(v.inFlight, i, i+1) // zeroes the vacated slot
	v.putTxState(st)
	done()
	v.tryStart()
}
