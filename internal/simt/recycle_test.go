package simt

import (
	"testing"

	"getm/internal/isa"
)

// A core built after another core recycled dirty register files and
// transaction logs runs as it would on fresh ones: every register reads zero
// when a program starts, and a recycled log carries nothing of its last
// transaction. The machine-level differential cannot see the registers,
// because every workload writes a register before reading it.
func TestRecycledCoreStartsClean(t *testing.T) {
	lanes := func(base uint64) []uint64 {
		a := make([]uint64, isa.WarpWidth)
		for l := range a {
			a[l] = base + 8*uint64(l)
		}
		return a
	}
	counter, zeros := lanes(0x1000), lanes(0x2000)
	incr := func() *isa.Program {
		return isa.NewBuilder().
			TxBegin().
			Load(1, counter).
			AddImmScalar(1, 1, 1).
			Store(1, counter).
			TxCommit().
			MustBuild()
	}

	dirty := newCoreHarness([]*isa.Program{incr(), incr()}, nil)
	dirty.run(t)
	for _, w := range dirty.core.warps {
		if w != nil {
			for l := range w.regs {
				for r := range w.regs[l] {
					w.regs[l][r] = ^uint64(0)
				}
			}
		}
	}
	dirty.core.Recycle()

	p := isa.NewBuilder().
		Store(3, zeros). // register 3 is never written
		TxBegin().
		Load(1, counter).
		AddImmScalar(1, 1, 1).
		Store(1, counter).
		TxCommit().
		MustBuild()
	h := newCoreHarness([]*isa.Program{p, incr()}, nil)
	for _, a := range zeros {
		h.mem.words[a] = 7
	}
	h.run(t)
	for l := 0; l < isa.WarpWidth; l++ {
		if v := h.mem.words[zeros[l]]; v != 0 {
			t.Fatalf("lane %d: unwritten register read %#x, want 0", l, v)
		}
		if v := h.mem.words[counter[l]]; v != 2 {
			t.Fatalf("lane %d: counter = %d, want 2", l, v)
		}
	}
}
