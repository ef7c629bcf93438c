package core

import "slices"

// StallBuffer queues transactional accesses that passed the timestamp check
// but found their granule write-reserved by an older transaction (Fig 9).
// It tracks a small number of address lines, each holding several requests
// from different warps contending for the same granule. When a commit or
// cleanup releases the granule (#writes reaches 0), the oldest queued
// request (minimum warpts) re-enters the validation unit.
//
// The validation unit asks for a granule's waiters after every request that
// leaves its granule unlocked, and the buffer is almost always empty, so the
// occupied lines sit in a slice of at most lines entries: an empty buffer
// answers without a lookup, and an occupied one is scanned.
type StallBuffer struct {
	lines          int
	entriesPerLine int
	// occupied holds the lines in use; a freed line's queue keeps its
	// backing past len(occupied) for the next line to take.
	occupied []stallLine

	// MaxOccupancy tracks the peak number of queued requests (Fig 15);
	// OccupancySamples accumulates per-address queue depths (Fig 16).
	MaxOccupancy int
	totalQueued  int
	PerAddrCount uint64
	PerAddrTotal uint64
	EnqueueCount uint64
	RejectedFull uint64
	tracker      *OccTracker
}

// stallLine is one address line: a granule and its waiters in arrival
// order.
type stallLine struct {
	granule uint64
	reqs    []*StalledReq
}

// StalledReq is an opaque queued request; the VU supplies the retry closure.
type StalledReq struct {
	Granule uint64
	Warpts  uint64
	Retry   func()
}

// OccTracker aggregates concurrent occupancy across several stall buffers
// (the paper's Fig 15 reports the maximum total across the whole GPU).
type OccTracker struct {
	cur int
	Max int
}

func (o *OccTracker) inc() {
	o.cur++
	if o.cur > o.Max {
		o.Max = o.cur
	}
}

func (o *OccTracker) dec() { o.cur-- }

// NewStallBuffer builds a buffer with the given geometry.
func NewStallBuffer(lines, entriesPerLine int) *StallBuffer {
	return &StallBuffer{lines: lines, entriesPerLine: entriesPerLine}
}

// line returns the index in occupied of granule's line, or -1 (at once when
// the buffer is empty, as it almost always is).
func (b *StallBuffer) line(granule uint64) int {
	for i := range b.occupied {
		if b.occupied[i].granule == granule {
			return i
		}
	}
	return -1
}

// SetTracker attaches a GPU-wide occupancy tracker.
func (b *StallBuffer) SetTracker(t *OccTracker) { b.tracker = t }

// Enqueue queues a request, returning false if the buffer is full (the
// transaction must abort instead, per §V-B2).
func (b *StallBuffer) Enqueue(r *StalledReq) bool {
	i, queued := b.line(r.Granule), 0
	if i >= 0 {
		queued = len(b.occupied[i].reqs)
	} else if len(b.occupied) >= b.lines {
		b.RejectedFull++
		return false
	}
	if queued >= b.entriesPerLine {
		b.RejectedFull++
		return false
	}
	if i < 0 {
		i = len(b.occupied)
		if i < cap(b.occupied) {
			b.occupied = b.occupied[:i+1]
		} else {
			b.occupied = append(b.occupied, stallLine{})
		}
		b.occupied[i].granule = r.Granule
	}
	l := &b.occupied[i]
	l.reqs = append(l.reqs, r)
	b.totalQueued++
	if b.tracker != nil {
		b.tracker.inc()
	}
	b.EnqueueCount++
	b.PerAddrCount++
	b.PerAddrTotal += uint64(len(l.reqs))
	if b.totalQueued > b.MaxOccupancy {
		b.MaxOccupancy = b.totalQueued
	}
	return true
}

// Release pops the oldest (minimum warpts) request waiting on granule, if
// any. The caller re-enters it into the validation unit.
func (b *StallBuffer) Release(granule uint64) *StalledReq {
	i := b.line(granule)
	if i < 0 {
		return nil
	}
	l := &b.occupied[i]
	o := oldestIn(l.reqs)
	r := l.reqs[o]
	l.reqs = slices.Delete(l.reqs, o, o+1)
	if len(l.reqs) == 0 {
		// Free the line: the last occupied line takes its place, and the
		// freed queue's backing moves past the end for the next line.
		last := len(b.occupied) - 1
		b.occupied[i], b.occupied[last] = b.occupied[last], b.occupied[i]
		b.occupied = b.occupied[:last]
	}
	b.totalQueued--
	if b.tracker != nil {
		b.tracker.dec()
	}
	return r
}

// oldest returns granule's first minimum-warpts waiter, or nil.
func (b *StallBuffer) oldest(granule uint64) *StalledReq {
	i := b.line(granule)
	if i < 0 {
		return nil
	}
	reqs := b.occupied[i].reqs
	return reqs[oldestIn(reqs)]
}

// oldestIn returns the index of the first minimum-warpts request in reqs,
// which is not empty.
func oldestIn(reqs []*StalledReq) int {
	o := 0
	for i, r := range reqs {
		if r.Warpts < reqs[o].Warpts {
			o = i
		}
	}
	return o
}

// Occupancy returns the number of queued requests.
func (b *StallBuffer) Occupancy() int { return b.totalQueued }
