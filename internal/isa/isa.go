// Package isa defines the warp program representation executed by the SIMT
// core model.
//
// A workload kernel is compiled to one program per warp; all 32 lanes of a
// warp execute the same op list in lockstep, with per-lane operands
// (addresses, immediates) and per-op lane masks for divergent regions.
// Transactions are bracketed by TxBegin/TxCommit; the fine-grained-lock
// baselines use the CritSection op, which performs ordered atomicCAS
// acquire/release with SIMT retry semantics (the loop-on-flag idiom the
// paper's Fig 1 shows).
package isa

import "fmt"

// WarpWidth is the number of lanes (threads) per warp.
const WarpWidth = 32

// LaneMask is a bitmask over the lanes of one warp.
type LaneMask uint32

// FullMask has all lanes active.
const FullMask LaneMask = (1 << WarpWidth) - 1

// Bit reports whether lane i is set.
func (m LaneMask) Bit(i int) bool { return m&(1<<uint(i)) != 0 }

// Set returns m with lane i set.
func (m LaneMask) Set(i int) LaneMask { return m | (1 << uint(i)) }

// Clear returns m with lane i cleared.
func (m LaneMask) Clear(i int) LaneMask { return m &^ (1 << uint(i)) }

// Count returns the number of active lanes.
func (m LaneMask) Count() int {
	n := 0
	for v := uint32(m); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Reg names one of the per-lane scalar registers.
type Reg uint8

// NumRegs is the per-lane register file size.
const NumRegs = 8

// Kind discriminates op types.
type Kind uint8

// Op kinds.
const (
	// Compute stalls the warp for Latency cycles (models ALU work).
	Compute Kind = iota
	// Load reads mem[Addr[lane]] into Dst.
	Load
	// Store writes Src (plus scalar Imm) to mem[Addr[lane]]; if UseImm is
	// set, the per-lane immediate is written instead of a register.
	Store
	// AddImm sets Dst = Src + Imm[lane] (scalar if Imm is nil -> ImmScalar).
	AddImm
	// MovImm sets Dst = Imm[lane].
	MovImm
	// TxBegin opens a transaction for the active lanes.
	TxBegin
	// TxCommit closes the innermost transaction.
	TxCommit
	// CritSection acquires the per-lane lock addresses in sorted order via
	// atomicCAS, executes Body for the lanes holding all their locks, then
	// releases. Failed lanes retry (warp-level loop), as in Fig 1.
	CritSection
	// AtomicAdd performs "Dst <- atomicAdd(mem[Addr[lane]], Imm[lane])" at
	// the word's home partition — the primitive hand-optimized GPU code uses
	// for shared counters instead of a lock/load/store/unlock sequence.
	AtomicAdd
)

var kindNames = [...]string{
	Compute: "compute", Load: "load", Store: "store", AddImm: "addimm",
	MovImm: "movimm", TxBegin: "txbegin", TxCommit: "txcommit",
	CritSection: "critsection", AtomicAdd: "atomicadd",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one warp instruction.
type Op struct {
	Kind Kind

	// Mask restricts the op to a subset of the lanes active in the enclosing
	// region; zero means "all currently active lanes".
	Mask LaneMask

	Dst, Src Reg

	// Latency applies to Compute ops.
	Latency uint32

	// Addr holds per-lane word-aligned byte addresses for Load/Store.
	Addr []uint64

	// Imm holds per-lane immediates for MovImm/AddImm/Store(UseImm);
	// ImmScalar is used when Imm is nil.
	Imm       []int64
	ImmScalar int64
	UseImm    bool

	// Locks holds, per lane, the lock-word addresses the CritSection must
	// hold (acquired in ascending order to avoid deadlock). Body is the
	// masked instruction sequence executed while holding them.
	Locks [][]uint64
	Body  []Op
}

// EffMask returns the op's lane mask intersected with active.
func (o *Op) EffMask(active LaneMask) LaneMask {
	if o.Mask == 0 {
		return active
	}
	return o.Mask & active
}

// LaneImm returns the immediate for a lane.
func (o *Op) LaneImm(lane int) int64 {
	if o.Imm == nil {
		return o.ImmScalar
	}
	return o.Imm[lane]
}

// Program is the op list executed by one warp, plus bookkeeping the core
// model needs for transactional retry.
type Program struct {
	Ops []Op
}

// Validate checks structural invariants: balanced TxBegin/TxCommit with no
// nesting, operand slices sized to the warp width, no memory ops outside a
// CritSection body touching lock words, and register indices in range.
func (p *Program) Validate() error {
	inTx := false
	for i := range p.Ops {
		op := &p.Ops[i]
		if err := validateOp(op, inTx); err != nil {
			return fmt.Errorf("op %d (%v): %w", i, op.Kind, err)
		}
		switch op.Kind {
		case TxBegin:
			inTx = true
		case TxCommit:
			inTx = false
		}
	}
	if inTx {
		return fmt.Errorf("unterminated transaction")
	}
	return nil
}

func validateOp(op *Op, inTx bool) error {
	if op.Dst >= NumRegs || op.Src >= NumRegs {
		return fmt.Errorf("register out of range")
	}
	switch op.Kind {
	case AtomicAdd:
		if inTx {
			return fmt.Errorf("atomic inside transaction")
		}
		if len(op.Addr) != WarpWidth {
			return fmt.Errorf("addr operand has %d lanes, want %d", len(op.Addr), WarpWidth)
		}
	case Load, Store:
		if len(op.Addr) != WarpWidth {
			return fmt.Errorf("addr operand has %d lanes, want %d", len(op.Addr), WarpWidth)
		}
		for lane, a := range op.Addr {
			if a%8 != 0 && op.EffMask(FullMask).Bit(lane) {
				return fmt.Errorf("lane %d address %#x not word aligned", lane, a)
			}
		}
	case MovImm, AddImm:
		if op.Imm != nil && len(op.Imm) != WarpWidth {
			return fmt.Errorf("imm operand has %d lanes, want %d", len(op.Imm), WarpWidth)
		}
	case TxBegin:
		if inTx {
			return fmt.Errorf("nested transaction")
		}
	case TxCommit:
		if !inTx {
			return fmt.Errorf("txcommit outside transaction")
		}
	case CritSection:
		if inTx {
			return fmt.Errorf("critical section inside transaction")
		}
		if len(op.Locks) != WarpWidth {
			return fmt.Errorf("locks operand has %d lanes, want %d", len(op.Locks), WarpWidth)
		}
		for _, body := range op.Body {
			if body.Kind == TxBegin || body.Kind == TxCommit || body.Kind == CritSection || body.Kind == AtomicAdd {
				return fmt.Errorf("illegal op %v in critical section body", body.Kind)
			}
			if err := validateOp(&body, false); err != nil {
				return err
			}
		}
	}
	return nil
}
