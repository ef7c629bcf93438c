package isa

import (
	"testing"
	"testing/quick"
)

func TestLaneMaskOps(t *testing.T) {
	var m LaneMask
	m = m.Set(0).Set(5).Set(31)
	if !m.Bit(0) || !m.Bit(5) || !m.Bit(31) || m.Bit(1) {
		t.Fatalf("mask bits wrong: %032b", m)
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d, want 3", m.Count())
	}
	m = m.Clear(5)
	if m.Bit(5) || m.Count() != 2 {
		t.Fatalf("clear failed: %032b", m)
	}
	if FullMask.Count() != WarpWidth {
		t.Fatalf("full mask count = %d", FullMask.Count())
	}
}

func TestLaneMaskCountProperty(t *testing.T) {
	prop := func(v uint32) bool {
		m := LaneMask(v)
		n := 0
		for i := 0; i < WarpWidth; i++ {
			if m.Bit(i) {
				n++
			}
		}
		return n == m.Count()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffMask(t *testing.T) {
	op := Op{Kind: Compute}
	if op.EffMask(FullMask) != FullMask {
		t.Fatal("zero op mask should mean all active lanes")
	}
	op.Mask = LaneMask(0b1010)
	if op.EffMask(LaneMask(0b0110)) != LaneMask(0b0010) {
		t.Fatal("EffMask should intersect")
	}
}

func TestBuilderValidProgram(t *testing.T) {
	addr := uniformAddr(0x100)
	p := NewBuilder().
		Compute(10).
		TxBegin().
		Load(1, addr).
		AddImmScalar(2, 1, -5).
		Store(2, addr).
		TxCommit().
		MustBuild()
	if len(p.Ops) != 6 {
		t.Fatalf("ops = %d", len(p.Ops))
	}
	if p.Ops[1].Kind != TxBegin || p.Ops[5].Kind != TxCommit {
		t.Fatalf("tx bounds: ops %v", p.Ops)
	}
}

func TestValidateRejectsNestedTx(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: TxBegin}, {Kind: TxBegin}}}
	if err := p.Validate(); err == nil {
		t.Fatal("nested tx accepted")
	}
}

func TestValidateRejectsUnterminatedTx(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: TxBegin}}}
	if err := p.Validate(); err == nil {
		t.Fatal("unterminated tx accepted")
	}
}

func TestValidateRejectsStrayCommit(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: TxCommit}}}
	if err := p.Validate(); err == nil {
		t.Fatal("stray txcommit accepted")
	}
}

func TestValidateRejectsShortAddrVector(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: Load, Addr: make([]uint64, 3)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("short addr vector accepted")
	}
}

func TestValidateRejectsMisalignedAddr(t *testing.T) {
	addr := uniformAddr(0x100)
	addr[7] = 0x101
	p := &Program{Ops: []Op{{Kind: Load, Addr: addr}}}
	if err := p.Validate(); err == nil {
		t.Fatal("misaligned address accepted")
	}
}

func TestValidateRejectsBadRegister(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: MovImm, Dst: NumRegs}}}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range register accepted")
	}
}

func TestValidateRejectsTxInCritSection(t *testing.T) {
	locks := make([][]uint64, WarpWidth)
	p := &Program{Ops: []Op{{
		Kind:  CritSection,
		Locks: locks,
		Body:  []Op{{Kind: TxBegin}},
	}}}
	if err := p.Validate(); err == nil {
		t.Fatal("tx inside critical section accepted")
	}
}

func TestValidateRejectsCritSectionInTx(t *testing.T) {
	locks := make([][]uint64, WarpWidth)
	p := &Program{Ops: []Op{
		{Kind: TxBegin},
		{Kind: CritSection, Locks: locks},
		{Kind: TxCommit},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("critical section inside tx accepted")
	}
}

func TestLaneImm(t *testing.T) {
	op := Op{ImmScalar: 42}
	if op.LaneImm(3) != 42 {
		t.Fatal("scalar imm fallback broken")
	}
	op.Imm = make([]int64, WarpWidth)
	op.Imm[3] = 7
	if op.LaneImm(3) != 7 {
		t.Fatal("per-lane imm broken")
	}
}

func TestUniformHelpers(t *testing.T) {
	a := uniformAddr(0x40)
	v := uniformImm(-3)
	if len(a) != WarpWidth || len(v) != WarpWidth || a[31] != 0x40 || v[0] != -3 {
		t.Fatal("uniform helpers broken")
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Kind(200).String() == "" {
		t.Fatal("Kind.String broken")
	}
}

func TestBuilderCritSection(t *testing.T) {
	locks := make([][]uint64, WarpWidth)
	for i := range locks {
		locks[i] = []uint64{uint64(8 * i)}
	}
	body := NewBuilder().Load(1, uniformAddr(0x800)).Store(1, uniformAddr(0x800)).Ops()
	p := NewBuilder().CritSection(locks, body).MustBuild()
	if p.Ops[0].Kind != CritSection || len(p.Ops[0].Body) != 2 {
		t.Fatalf("crit section not built: %+v", p.Ops[0])
	}
}

func TestValidateRejectsAtomicInTx(t *testing.T) {
	p := &Program{Ops: []Op{
		{Kind: TxBegin},
		{Kind: AtomicAdd, Addr: make([]uint64, WarpWidth)},
		{Kind: TxCommit},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("atomic inside transaction accepted")
	}
}

func TestValidateRejectsAtomicShortAddr(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: AtomicAdd, Addr: make([]uint64, 5)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("short atomic addr vector accepted")
	}
}

func TestValidateRejectsAtomicInCritSection(t *testing.T) {
	p := &Program{Ops: []Op{{
		Kind:  CritSection,
		Locks: make([][]uint64, WarpWidth),
		Body:  []Op{{Kind: AtomicAdd, Addr: make([]uint64, WarpWidth)}},
	}}}
	if err := p.Validate(); err == nil {
		t.Fatal("atomic in critical section accepted")
	}
}

func TestValidateRejectsShortImmVector(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: MovImm, Imm: make([]int64, 3)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("short imm vector accepted")
	}
}

func TestValidateRejectsShortLocksVector(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: CritSection, Locks: make([][]uint64, 3)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("short locks vector accepted")
	}
}

func TestValidateRejectsBadBodyOp(t *testing.T) {
	p := &Program{Ops: []Op{{
		Kind:  CritSection,
		Locks: make([][]uint64, WarpWidth),
		Body:  []Op{{Kind: Load, Addr: make([]uint64, 2)}},
	}}}
	if err := p.Validate(); err == nil {
		t.Fatal("invalid body op accepted")
	}
}

func TestBuilderReportsError(t *testing.T) {
	_, err := NewBuilder().TxBegin().Build()
	if err == nil {
		t.Fatal("Build accepted unterminated tx")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	NewBuilder().TxBegin().MustBuild()
}

func TestMaskedBuilderVariants(t *testing.T) {
	addr := uniformAddr(0x100)
	imm := uniformImm(1)
	mask := LaneMask(0b11)
	locks := make([][]uint64, WarpWidth)
	p := NewBuilder().
		LoadMasked(1, addr, mask).
		StoreMasked(1, addr, mask).
		AddImm(2, 1, imm).
		MovImm(3, imm).
		TxBeginMasked(mask).
		TxCommit().
		CritSectionMasked(locks, nil, mask).
		MustBuild()
	for _, op := range p.Ops {
		switch op.Kind {
		case Compute, TxCommit, AddImm, MovImm:
		default:
			if op.Mask != mask && op.Kind != AddImm && op.Kind != MovImm && op.Kind != TxCommit {
				t.Fatalf("op %v lost its mask", op.Kind)
			}
		}
	}
}

// uniformAddr replicates one address across all lanes.
func uniformAddr(a uint64) []uint64 {
	out := make([]uint64, WarpWidth)
	for i := range out {
		out[i] = a
	}
	return out
}

// uniformImm replicates one immediate across all lanes.
func uniformImm(v int64) []int64 {
	out := make([]int64, WarpWidth)
	for i := range out {
		out[i] = v
	}
	return out
}
