package simt

import (
	"slices"

	"getm/internal/isa"
)

// Critical-section execution for the fine-grained-lock baselines.
//
// A CritSection op carries, per lane, the list of lock words the lane must
// hold while running the body. The warp loops (as the Fig 1 idiom does in
// lockstep SIMT code): every not-yet-done lane attempts to CAS-acquire its
// locks in ascending address order; lanes that acquire everything execute
// the body together under a lane mask; locks are then released with plain
// stores, and the remaining lanes retry. The loop's state is the warp's
// csState and every continuation is one of its prebound callbacks.

// execCritSection starts the state machine.
func (c *Core) execCritSection(w *Warp, op *isa.Op) {
	mask := w.effMask(op)
	w.top().pc++
	if mask == 0 {
		return
	}
	if w.cs.roundFn == nil {
		w.bindCS()
	}
	w.cs.op, w.cs.remaining = op, mask
	w.setState(wBlocked)
	c.csRound(w)
}

// sortedLocks returns the lane's lock list in ascending order (deadlock-free
// acquisition order).
func sortedLocks(locks []uint64) []uint64 {
	if slices.IsSorted(locks) {
		return locks
	}
	s := slices.Clone(locks)
	slices.Sort(s)
	return s
}

// csRound runs one acquire-execute-release iteration for the remaining lanes.
func (c *Core) csRound(w *Warp) {
	c.csAcquireLevel(w, w.cs.remaining, 0, 0)
}

// csAcquireLevel CASes the level-th lock of every contender; winners advance
// to the next level, losers release what they hold and wait for the next
// round (csCASDone). Lanes whose lock lists are exhausted become holders.
func (c *Core) csAcquireLevel(w *Warp, contenders isa.LaneMask, level int, holders isa.LaneMask) {
	cs := &w.cs
	var needs isa.LaneMask
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !contenders.Bit(lane) {
			continue
		}
		if len(cs.op.Locks[lane]) <= level {
			holders = holders.Set(lane)
		} else {
			needs = needs.Set(lane)
		}
	}
	if needs == 0 {
		c.csBody(w, holders)
		return
	}

	cs.level, cs.holders = level, holders
	cs.winners, cs.losers = 0, 0
	cs.outstanding = needs.Count()
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if needs.Bit(lane) {
			addr := sortedLocks(cs.op.Locks[lane])[level]
			c.memsys.AtomicCAS(c.ID, addr, 0, uint64(w.gwid)+1, cs.casDone[lane])
		}
	}
}

// csCASDone takes one lane's CAS outcome; the level's last releases the
// losers' locks and then moves the winners to the next level.
func (c *Core) csCASDone(w *Warp, lane int, ok bool) {
	cs := &w.cs
	if ok {
		cs.held[lane]++
		cs.winners = cs.winners.Set(lane)
	} else {
		cs.losers = cs.losers.Set(lane)
	}
	cs.outstanding--
	if cs.outstanding == 0 {
		c.csReleaseLocks(w, cs.losers, cs.nextLevelFn)
	}
}

// csReleaseLocks releases every lock held by the given lanes (plain stores,
// as in the Fig 1 code), resets their counts and runs done once the stores
// complete.
func (c *Core) csReleaseLocks(w *Warp, lanes isa.LaneMask, done func()) {
	cs := &w.cs
	cs.addrs, cs.vals = cs.addrs[:0], cs.vals[:0]
	for lane := 0; lane < isa.WarpWidth; lane++ {
		if !lanes.Bit(lane) {
			continue
		}
		locks := sortedLocks(cs.op.Locks[lane])
		for i := 0; i < cs.held[lane]; i++ {
			cs.addrs = append(cs.addrs, locks[i])
			cs.vals = append(cs.vals, 0)
		}
		cs.held[lane] = 0
	}
	if len(cs.addrs) == 0 {
		done()
		return
	}
	cs.released = done
	c.memsys.Access(c.ID, true, cs.addrs, cs.vals, cs.storesFn)
}

// csBody runs the critical-section body for the lanes holding their locks.
func (c *Core) csBody(w *Warp, holders isa.LaneMask) {
	cs := &w.cs
	if holders == 0 {
		// Everyone lost an acquisition race; spin and retry.
		c.eng.Schedule(csRetryDelay, cs.roundFn)
		return
	}
	cs.body = holders
	w.frames = append(w.frames, frame{ops: cs.op.Body, mask: holders})
	w.setState(wReady)
	c.scheduleIssue()
}

// csBodyDone follows the body's frame: a memory fence, so the body's
// fire-and-forget stores are globally visible before the locks are released
// (the __threadfence a real GPU lock implementation issues here).
func (c *Core) csBodyDone(w *Warp) {
	w.fence(w.cs.bodyDoneFn)
}

// csFinish retires the body's lanes once their locks are free: another round
// for the lanes still waiting, or the end of the critical section.
func (c *Core) csFinish(w *Warp) {
	cs := &w.cs
	cs.remaining &^= cs.body
	if cs.remaining != 0 {
		c.eng.Schedule(csRetryDelay, cs.roundFn)
		return
	}
	cs.op = nil
	c.wake(w)
}
