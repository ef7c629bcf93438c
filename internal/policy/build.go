package policy

import (
	"fmt"

	"getm/internal/core"
	"getm/internal/eapg"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
	"getm/internal/warptm"
)

// Deps are the machine components the lifecycle engine is assembled over;
// the gpu machine supplies them (policy deliberately does not import gpu).
type Deps struct {
	Eng        *sim.Engine
	AMap       mem.AddressMap
	Trans      tm.Transport
	Partitions []*mem.Partition
	Img        *mem.Image
	Cores      int
	// RNG is the machine's component-seeding stream; Build forks it exactly
	// as the legacy dispatch did, so preset points stay bit-identical.
	RNG *sim.RNG
	// Record enables the serializability replay checker's commit log.
	Record bool

	GETM   core.Config
	WarpTM warptm.Config
}

// Engine is one assembled transaction-lifecycle engine: the tm.Protocol the
// cores drive, plus the concrete machinery behind it (for stats collection,
// invariant checks, tracing and array recycling). Exactly one
// of the two machinery groups is populated, per the policy's version
// management axis.
type Engine struct {
	Protocol tm.Protocol

	// Eager version management (GETM machinery).
	GETM   *core.Protocol
	GETMVU []*core.VU
	GETMCU []*core.CU
	Stall  *core.OccTracker

	// Lazy version management (WarpTM machinery, optionally wrapped by the
	// EAPG broadcast layer for first-writer-wins resolution).
	WarpTM *warptm.Protocol
	EAPG   *eapg.Protocol
}

// Build assembles the lifecycle engine for one matrix point. Every policy
// axis maps onto one knob of the underlying machinery:
//
//   - vm selects the machinery itself: eager = GETM validation/commit units,
//     lazy = WarpTM value validation with redo logs;
//   - cd is implied for eager vm; for lazy vm, cd=eager enables the
//     access-time revalidation of the read log (WarpTM-EL);
//   - res=fww sets core.Config.FirstWriterWins under eager vm and wraps the
//     protocol in the EAPG early-abort broadcast layer under lazy vm;
//   - arb=ring sets core.Config.RingArb (ack-gated commit) under eager vm
//     and is the native in-order retirement under lazy vm, where arb=local
//     sets warptm.Config.LocalArb instead.
//
// Invalid points return an ErrInvalid-wrapping error.
func Build(p Policy, d Deps) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch p.VersionMgmt {
	case VMEager:
		return buildEager(p, d), nil
	case VMLazy:
		return buildLazy(p, d), nil
	}
	return nil, fmt.Errorf("%w: vm=%q", ErrInvalid, p.VersionMgmt)
}

// buildEager assembles the GETM machinery; the GETM preset reproduces the
// legacy dispatch exactly (same construction order, same RNG forks).
func buildEager(p Policy, d Deps) *Engine {
	cfg := d.GETM
	cfg.FirstWriterWins = p.Resolution == ResFirstWriterWins
	cfg.RingArb = p.Arbitration == ArbRing

	e := &Engine{Stall: &core.OccTracker{}}
	nParts := len(d.Partitions)
	for i, part := range d.Partitions {
		vu := core.NewVU(cfg, d.Eng, part,
			cfg.PreciseEntries/nParts, cfg.ApproxEntries/nParts,
			d.RNG.Fork(uint64(i)))
		vu.Stall.SetTracker(e.Stall)
		e.GETMVU = append(e.GETMVU, vu)
		e.GETMCU = append(e.GETMCU, core.NewCU(cfg, d.Eng, part, vu))
	}
	e.GETM = core.NewProtocol(cfg, d.Eng, d.AMap, d.Trans, e.GETMVU, e.GETMCU)
	e.GETM.Record = d.Record
	e.Protocol = e.GETM
	return e
}

// buildLazy assembles the WarpTM machinery (same RNG fork offsets as the
// legacy dispatch), wrapping it in the EAPG layer for first-writer-wins.
func buildLazy(p Policy, d Deps) *Engine {
	cfg := d.WarpTM
	cfg.Eager = p.ConflictDetect == CDEager
	cfg.LocalArb = p.Arbitration == ArbLocal

	e := &Engine{}
	var vus []*warptm.VU
	for i, part := range d.Partitions {
		vus = append(vus, warptm.NewVU(cfg, d.Eng, part, d.RNG.Fork(uint64(100+i))))
	}
	e.WarpTM = warptm.NewProtocol(cfg, d.Eng, d.AMap, d.Trans, vus, d.Img)
	e.WarpTM.Record = d.Record
	e.Protocol = e.WarpTM
	if p.Resolution == ResFirstWriterWins {
		e.EAPG = eapg.New(e.WarpTM, d.Eng, d.Trans, d.Cores)
		e.Protocol = e.EAPG
	}
	return e
}
