package isa

// Builder assembles warp programs. Workload generators use it to emit ops
// with per-lane operands without repeating slice bookkeeping.
type Builder struct {
	ops []Op
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return &Builder{} }

// Compute appends an ALU delay of the given cycles.
func (b *Builder) Compute(latency uint32) *Builder {
	b.ops = append(b.ops, Op{Kind: Compute, Latency: latency})
	return b
}

// Load appends "dst <- mem[addr[lane]]".
func (b *Builder) Load(dst Reg, addr []uint64) *Builder {
	b.ops = append(b.ops, Op{Kind: Load, Dst: dst, Addr: addr})
	return b
}

// LoadMasked is Load restricted to mask.
func (b *Builder) LoadMasked(dst Reg, addr []uint64, mask LaneMask) *Builder {
	b.ops = append(b.ops, Op{Kind: Load, Dst: dst, Addr: addr, Mask: mask})
	return b
}

// Store appends "mem[addr[lane]] <- src".
func (b *Builder) Store(src Reg, addr []uint64) *Builder {
	b.ops = append(b.ops, Op{Kind: Store, Src: src, Addr: addr})
	return b
}

// StoreMasked is Store restricted to mask.
func (b *Builder) StoreMasked(src Reg, addr []uint64, mask LaneMask) *Builder {
	b.ops = append(b.ops, Op{Kind: Store, Src: src, Addr: addr, Mask: mask})
	return b
}

// StoreImm appends "mem[addr[lane]] <- imm[lane]".
func (b *Builder) StoreImm(imm []int64, addr []uint64) *Builder {
	b.ops = append(b.ops, Op{Kind: Store, UseImm: true, Imm: imm, Addr: addr})
	return b
}

// AddImm appends "dst <- src + imm[lane]".
func (b *Builder) AddImm(dst, src Reg, imm []int64) *Builder {
	b.ops = append(b.ops, Op{Kind: AddImm, Dst: dst, Src: src, Imm: imm})
	return b
}

// AddImmScalar appends "dst <- src + imm" with a warp-uniform immediate.
func (b *Builder) AddImmScalar(dst, src Reg, imm int64) *Builder {
	b.ops = append(b.ops, Op{Kind: AddImm, Dst: dst, Src: src, ImmScalar: imm})
	return b
}

// MovImm appends "dst <- imm[lane]".
func (b *Builder) MovImm(dst Reg, imm []int64) *Builder {
	b.ops = append(b.ops, Op{Kind: MovImm, Dst: dst, Imm: imm})
	return b
}

// TxBegin opens a transaction.
func (b *Builder) TxBegin() *Builder {
	b.ops = append(b.ops, Op{Kind: TxBegin})
	return b
}

// TxBeginMasked opens a transaction for a subset of lanes.
func (b *Builder) TxBeginMasked(mask LaneMask) *Builder {
	b.ops = append(b.ops, Op{Kind: TxBegin, Mask: mask})
	return b
}

// TxCommit closes the innermost transaction.
func (b *Builder) TxCommit() *Builder {
	b.ops = append(b.ops, Op{Kind: TxCommit})
	return b
}

// AtomicAdd appends "dst <- atomicAdd(mem[addr[lane]], imm[lane])".
func (b *Builder) AtomicAdd(dst Reg, addr []uint64, imm []int64) *Builder {
	b.ops = append(b.ops, Op{Kind: AtomicAdd, Dst: dst, Addr: addr, Imm: imm})
	return b
}

// CritSection appends a lock-protected region. locks[lane] lists the lock
// words lane must hold; body is built with a nested builder.
func (b *Builder) CritSection(locks [][]uint64, body []Op) *Builder {
	b.ops = append(b.ops, Op{Kind: CritSection, Locks: locks, Body: body})
	return b
}

// CritSectionMasked is CritSection restricted to mask.
func (b *Builder) CritSectionMasked(locks [][]uint64, body []Op, mask LaneMask) *Builder {
	b.ops = append(b.ops, Op{Kind: CritSection, Locks: locks, Body: body, Mask: mask})
	return b
}

// Ops returns the accumulated op list (for CritSection bodies).
func (b *Builder) Ops() []Op { return b.ops }

// Build finalizes and validates the program.
func (b *Builder) Build() (*Program, error) {
	p := &Program{Ops: b.ops}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on invalid programs. Workload generators use
// it since their programs are constructed, not user input.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
