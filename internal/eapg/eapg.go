// Package eapg implements the idealized EarlyAbort/Pause-n-Go baseline
// (Chen & Peng, HPCA 2016) the paper compares against: WarpTM's lazy
// value-based commit machinery, plus global broadcasts of committing
// transactions' write signatures that (a) abort doomed running transactions
// early and (b) pause accesses that would conflict with an in-flight commit
// until it completes.
//
// Following the paper's footnote 3, the broadcasts are idealized as 64-bit
// messages, the LLC-side refcount updates are free, and the early conflict
// check is instant.
package eapg

import (
	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/tm"
	"getm/internal/trace"
	"getm/internal/warptm"
)

// Signature is a 64-bit bloom filter over word addresses.
type Signature uint64

// AddWord folds a word address into the signature.
func (s Signature) AddWord(addr uint64) Signature {
	return s | 1<<(sim.Mix64(addr/uint64(mem.WordBytes))%64)
}

// activeSig is one commit's signature record, from the commit to its resume
// and its last broadcast delivery. Pooled with its delivery and resume
// callbacks prebuilt; they reach the protocol through p, which only a record
// in use has.
type activeSig struct {
	p     *Protocol
	owner int
	sig   Signature
	// words is the precise write set: the broadcast message is idealized to
	// 64 bits (footnote 3), but the conflict checks use the cores'
	// conflict-address tables, which track precise addresses.
	words   tm.AddrSet
	waiters []func()
	// refs counts the holders of this pooled object: the commit itself plus
	// one per outstanding broadcast delivery (a congested crossbar can, in
	// principle, deliver a broadcast after the commit has resumed).
	refs int
	// resume is the core's continuation, which resumeFn runs once the inner
	// WarpTM commit is done; deliverFn takes one core's broadcast copy.
	resume    func(tm.CommitOutcome)
	resumeFn  func(tm.CommitOutcome)
	deliverFn func(core int)
	next      *activeSig
}

// pausedAccess is an access paused behind an in-flight commit (pause-n-go),
// pooled with its retry prebuilt.
type pausedAccess struct {
	p       *Protocol
	w       *tm.WarpTx
	isWrite bool
	lanes   []tm.LaneAccess
	done    func([]tm.AccessResult)
	retryFn func()
	next    *pausedAccess
}

// Stocks of finished machines' EAPG free lists (DESIGN §6).
var (
	sigStock   = sim.NewStock(func(as *activeSig) **activeSig { return &as.next })
	pauseStock = sim.NewStock(func(pa *pausedAccess) **pausedAccess { return &pa.next })
)

// Protocol wraps WarpTM with early-abort and pause-n-go.
type Protocol struct {
	inner *warptm.Protocol
	eng   *sim.Engine
	trans tm.Transport
	cores int

	// active holds the running (pre-commit) transactions per core, each
	// list sorted by gwid, so a broadcast delivery visits its core's warps
	// in a fixed order (early-abort notices and their trace records are
	// reproducible) without a per-delivery sort.
	active [][]*tm.WarpTx
	// commitOrder holds the in-flight commits that broadcast a signature,
	// sorted by owner gwid so the pause-target choice among several matches
	// is deterministic without a per-access sort.
	commitOrder []*activeSig
	// Free lists (single goroutine per machine, no locking); Recycle stocks
	// them.
	sigPool   *activeSig
	pausePool *pausedAccess
	abortSink func(tm.AbortNotice)

	EarlyAborts uint64
	Pauses      uint64
	Broadcasts  uint64

	rec *trace.Recorder
}

// SetTrace attaches the machine-wide event recorder to this wrapper and the
// inner WarpTM machinery (nil disables).
func (p *Protocol) SetTrace(rec *trace.Recorder) {
	p.rec = rec
	p.inner.SetTrace(rec)
}

var (
	_ tm.Protocol     = (*Protocol)(nil)
	_ tm.AsyncAborter = (*Protocol)(nil)
)

// New wraps a WarpTM protocol instance. The paper's EAPG baseline wraps
// plain lazy WarpTM; the policy matrix also composes it over the eager-check
// variant (cfg.Eager), in which case intra-warp conflicts resolve eagerly too.
func New(inner *warptm.Protocol, eng *sim.Engine, trans tm.Transport, cores int) *Protocol {
	return &Protocol{
		inner:  inner,
		eng:    eng,
		trans:  trans,
		cores:  cores,
		active: make([][]*tm.WarpTx, cores),
	}
}

// Recycle hands the free lists to the next machine built in this process
// (the inner WarpTM recycles its own). The protocol must not run afterwards.
func (p *Protocol) Recycle() {
	sigStock.Put(p.sigPool)
	pauseStock.Put(p.pausePool)
	p.sigPool, p.pausePool = nil, nil
}

// Name implements tm.Protocol.
func (p *Protocol) Name() string { return "eapg" }

// EagerIntraWarp matches the wrapped machinery: commit-time intra-warp
// resolution for plain WarpTM, access-time for the eager-check variant.
func (p *Protocol) EagerIntraWarp() bool { return p.inner.EagerIntraWarp() }

// SetAbortSink implements tm.AsyncAborter.
func (p *Protocol) SetAbortSink(fn func(tm.AbortNotice)) { p.abortSink = fn }

// Begin implements tm.Protocol.
func (p *Protocol) Begin(w *tm.WarpTx) {
	// Insert keeping the core's list sorted by gwid.
	act := append(p.active[w.Core], w)
	for i := len(act) - 1; i > 0 && act[i-1].GWID > w.GWID; i-- {
		act[i], act[i-1] = act[i-1], act[i]
	}
	p.active[w.Core] = act
	p.inner.Begin(w)
}

// dropActive removes the warp's running transaction (it is committing).
func (p *Protocol) dropActive(w *tm.WarpTx) {
	act := p.active[w.Core]
	for i, x := range act {
		if x.GWID == w.GWID {
			p.active[w.Core] = append(act[:i], act[i+1:]...)
			return
		}
	}
}

// getSig pops a pooled signature record (sets and slices keep capacity).
func (p *Protocol) getSig(owner int) *activeSig {
	as := p.sigPool
	if as == nil {
		as = sigStock.Get()
	}
	if as == nil {
		as = &activeSig{}
		as.deliverFn = func(core int) {
			p := as.p
			p.earlyAbortDoomed(core, as.owner, &as.words)
			p.dropSig(as)
		}
		as.resumeFn = func(out tm.CommitOutcome) { as.p.commitDone(as, out) }
	} else {
		p.sigPool = as.next
	}
	as.p, as.owner, as.sig = p, owner, 0
	return as
}

// dropSig releases one reference; the last holder recycles the record.
func (p *Protocol) dropSig(as *activeSig) {
	as.refs--
	if as.refs > 0 {
		return
	}
	as.words.Reset()
	clear(as.waiters)
	as.waiters = as.waiters[:0]
	as.p, as.resume = nil, nil
	as.next = p.sigPool
	p.sigPool = as
}

// pause parks an access until the commit it conflicts with resumes.
func (p *Protocol) pause(w *tm.WarpTx, isWrite bool, lanes []tm.LaneAccess, done func([]tm.AccessResult)) *pausedAccess {
	pa := p.pausePool
	if pa == nil {
		pa = pauseStock.Get()
	}
	if pa == nil {
		pa = &pausedAccess{}
		pa.retryFn = func() {
			p, w, isWrite, lanes, done := pa.p, pa.w, pa.isWrite, pa.lanes, pa.done
			pa.p, pa.w, pa.lanes, pa.done = nil, nil, nil, nil
			pa.next = p.pausePool
			p.pausePool = pa
			p.Access(w, isWrite, lanes, done)
		}
	} else {
		p.pausePool = pa.next
	}
	pa.p, pa.w, pa.isWrite, pa.lanes, pa.done = p, w, isWrite, lanes, done
	return pa
}

// pauseTarget returns a committing signature that the access would conflict
// with, if any (pause-n-go). commitOrder is sorted by owner, so the choice
// among several matches is deterministic.
func (p *Protocol) pauseTarget(gwid int, lanes []tm.LaneAccess) *activeSig {
	for _, as := range p.commitOrder {
		if as.owner == gwid {
			continue
		}
		for _, la := range lanes {
			if as.words.Has(la.Addr) {
				return as
			}
		}
	}
	return nil
}

// Access implements tm.Protocol: conflicting accesses pause until the
// in-flight commit finishes, then proceed through WarpTM's access path.
func (p *Protocol) Access(w *tm.WarpTx, isWrite bool, lanes []tm.LaneAccess, done func([]tm.AccessResult)) {
	if as := p.pauseTarget(w.GWID, lanes); as != nil {
		p.Pauses++
		if p.rec != nil {
			p.rec.Emit(trace.SrcEAPG, trace.KEAPGPause, int32(w.Core),
				uint64(w.GWID), uint64(as.owner), 0, 0)
		}
		as.waiters = append(as.waiters, p.pause(w, isWrite, lanes, done).retryFn)
		return
	}
	p.inner.Access(w, isWrite, lanes, done)
}

// Commit implements tm.Protocol: broadcast the write signature (idealized as
// one 64-bit message per core), early-abort doomed transactions, then run
// WarpTM's two-round-trip commit.
func (p *Protocol) Commit(w *tm.WarpTx, commitMask, abortMask isa.LaneMask, resume func(tm.CommitOutcome)) {
	p.dropActive(w)

	as := p.getSig(w.GWID)
	for _, e := range w.Log.Writes {
		if commitMask.Bit(e.Lane) {
			as.sig = as.sig.AddWord(e.Addr)
			as.words.Add(e.Addr)
		}
	}

	as.refs = 1 // the commit
	if as.words.Len() > 0 {
		as.refs += p.cores // one per broadcast delivery
		// Insert keeping commitOrder sorted by owner.
		i := len(p.commitOrder)
		p.commitOrder = append(p.commitOrder, nil)
		for i > 0 && p.commitOrder[i-1].owner > as.owner {
			p.commitOrder[i] = p.commitOrder[i-1]
			i--
		}
		p.commitOrder[i] = as
		p.Broadcasts++
		if p.rec != nil {
			p.rec.Emit(trace.SrcEAPG, trace.KEAPGBroadcast, int32(w.Core),
				uint64(w.GWID), uint64(as.sig), uint64(as.words.Len()), 0)
		}
		// The LLC-side broadcast to every core (64-bit flits).
		p.trans.BroadcastToCores(0, tm.SignatureBytes, as.deliverFn)
	}

	as.resume = resume
	p.inner.Commit(w, commitMask, abortMask, as.resumeFn)
}

// commitDone resumes the core once the inner commit is done: a commit that
// broadcast leaves commitOrder and wakes the accesses it paused first.
func (p *Protocol) commitDone(as *activeSig, out tm.CommitOutcome) {
	resume := as.resume
	if as.words.Len() > 0 {
		for i, x := range p.commitOrder {
			if x == as {
				p.commitOrder = append(p.commitOrder[:i], p.commitOrder[i+1:]...)
				break
			}
		}
		for _, retry := range as.waiters {
			p.eng.Schedule(1, retry)
		}
	}
	p.dropSig(as)
	resume(out)
}

// earlyAbortDoomed aborts running transactions on core whose read sets
// intersect the committing write set: their commit-time validation would
// fail anyway, so aborting now saves the round trips. Notices go out in
// ascending gwid order.
func (p *Protocol) earlyAbortDoomed(core, committer int, words *tm.AddrSet) {
	if p.abortSink == nil {
		return
	}
	for _, w := range p.active[core] {
		gwid := w.GWID
		if gwid == committer {
			continue
		}
		var doomed isa.LaneMask
		for _, e := range w.Log.Reads {
			if words.Has(e.Addr) {
				doomed = doomed.Set(e.Lane)
			}
		}
		if doomed != 0 {
			p.EarlyAborts += uint64(doomed.Count())
			if p.rec != nil {
				p.rec.Emit(trace.SrcEAPG, trace.KEAPGEarlyAbort, int32(core),
					uint64(gwid), uint64(doomed), uint64(committer), 0)
			}
			p.abortSink(tm.AbortNotice{GWID: gwid, Lanes: doomed, Cause: tm.CauseEarlyAbort})
		}
	}
}
