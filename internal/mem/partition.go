package mem

import (
	"getm/internal/sim"
	"getm/internal/trace"
)

// PartitionConfig sets the timing of one memory partition's data path.
type PartitionConfig struct {
	LLCBytes     int
	LLCWays      int
	LineBytes    int
	LLCLatency   sim.Cycle // pipelined hit latency
	DRAMBanks    int
	DRAMLatency  uint64 // additional latency on LLC miss
	DRAMBankBusy uint64
	// ServiceRate is the number of requests the partition can start per
	// cycle (1 in Table II).
	ServiceRate int
}

// DefaultPartitionConfig mirrors Table II: 128 KB 8-way LLC with 128 B lines;
// DRAM ~200 cycles.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{
		LLCBytes:     128 << 10,
		LLCWays:      8,
		LineBytes:    128,
		LLCLatency:   60,
		DRAMBanks:    8,
		DRAMLatency:  200,
		DRAMBankBusy: 36,
		ServiceRate:  1,
	}
}

// Partition models one memory partition's data path: a service queue in
// front of the LLC bank, and a DRAM channel behind it. Protocol units
// (validation/commit units) are layered on top by their packages and call
// Access for their LLC data operations.
type Partition struct {
	ID    int
	Cfg   PartitionConfig
	Eng   *sim.Engine
	Image *Image
	LLC   *LLC
	DRAM  *DRAM

	nextService sim.Cycle // earliest cycle with a free service slot
	slotStarts  int       // requests already started in cycle nextService
	atomicNext  sim.Cycle
	// AtomicsServed counts atomic operations (lock traffic).
	AtomicsServed uint64

	rec *trace.Recorder
}

// SetTrace attaches the machine-wide event recorder (nil disables; the check
// on the access path is a single pointer compare).
func (p *Partition) SetTrace(rec *trace.Recorder) { p.rec = rec }

// NewPartition builds a partition over a shared memory image.
func NewPartition(id int, eng *sim.Engine, img *Image, cfg PartitionConfig) *Partition {
	return &Partition{
		ID:    id,
		Cfg:   cfg,
		Eng:   eng,
		Image: img,
		LLC:   NewLLC(cfg.LLCBytes, cfg.LLCWays, cfg.LineBytes),
		DRAM:  NewDRAM(cfg.DRAMBanks, cfg.DRAMLatency, cfg.DRAMBankBusy),
	}
}

// serviceSlot reserves the next issue slot at the partition's service rate
// and returns its cycle: each cycle admits ServiceRate starts (at least one),
// and further requests queue into later cycles.
func (p *Partition) serviceSlot() sim.Cycle {
	if now := p.Eng.Now(); now > p.nextService {
		p.nextService, p.slotStarts = now, 0
	}
	start := p.nextService
	p.slotStarts++
	if p.slotStarts >= maxInt(p.Cfg.ServiceRate, 1) {
		p.nextService, p.slotStarts = start+1, 0
	}
	return start
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AccessDelay computes the completion delay for a data access to addr
// starting now, accounting for queueing, LLC hit/miss, and DRAM. It advances
// the tag and bank state.
func (p *Partition) AccessDelay(addr uint64) sim.Cycle {
	start := p.serviceSlot()
	done := start + p.Cfg.LLCLatency
	hit := p.LLC.Access(addr)
	if !hit {
		done += sim.Cycle(p.DRAM.Latency(addr, uint64(start)))
	}
	d := done - p.Eng.Now()
	if p.rec != nil {
		h := uint64(0)
		if hit {
			h = 1
		}
		p.rec.Emit(trace.SrcMem, trace.KMemAccess, int32(p.ID), addr, h, 0, uint64(d))
	}
	return d
}

// WriteNow updates the image immediately (used by commit units that already
// charged their own timing) while still touching the LLC tags.
func (p *Partition) WriteNow(addr, val uint64) {
	p.LLC.Access(addr)
	p.Image.Write(addr, val)
}

// ReadNow returns the current value without timing (protocol-internal reads
// whose latency the caller models, e.g. value validation pipelines).
func (p *Partition) ReadNow(addr uint64) uint64 { return p.Image.Read(addr) }

// atomicSlot returns the delay until this atomic's read-modify-write takes
// effect. The partition's atomic unit applies effects strictly in arrival
// order (as the ROP units in real GPUs do), so a later-arriving atomic can
// never observe memory from before an earlier one.
func (p *Partition) atomicSlot(addr uint64) sim.Cycle {
	effect := p.Eng.Now() + p.AccessDelay(addr)
	if p.atomicNext > effect {
		effect = p.atomicNext
	}
	p.atomicNext = effect + 1
	p.AtomicsServed++
	d := effect - p.Eng.Now()
	if p.rec != nil {
		p.rec.Emit(trace.SrcMem, trace.KMemAtomic, int32(p.ID), addr, 0, 0, uint64(d))
	}
	return d
}

// AtomicCAS performs a timed compare-and-swap; done receives the old value
// and whether the swap happened. GPU atomics execute at the partition, so
// contended CAS traffic serializes here.
func (p *Partition) AtomicCAS(addr, compare, swap uint64, done func(old uint64, ok bool)) {
	p.Eng.Schedule(p.atomicSlot(addr), func() {
		old := p.Image.Read(addr)
		ok := old == compare
		if ok {
			p.Image.Write(addr, swap)
		}
		done(old, ok)
	})
}

// AtomicExch performs a timed atomic exchange; done receives the old value.
func (p *Partition) AtomicExch(addr, val uint64, done func(old uint64)) {
	p.Eng.Schedule(p.atomicSlot(addr), func() {
		old := p.Image.Read(addr)
		p.Image.Write(addr, val)
		done(old)
	})
}

// AtomicAdd performs a timed atomic add; done receives the old value.
func (p *Partition) AtomicAdd(addr, delta uint64, done func(old uint64)) {
	p.Eng.Schedule(p.atomicSlot(addr), func() {
		old := p.Image.Read(addr)
		p.Image.Write(addr, old+delta)
		done(old)
	})
}
