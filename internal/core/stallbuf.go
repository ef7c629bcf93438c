package core

import "slices"

// StallBuffer queues transactional accesses that passed the timestamp check
// but found their granule write-reserved by an older transaction (Fig 9).
// It tracks a small number of address lines, each holding several requests
// from different warps contending for the same granule. When a commit or
// cleanup releases the granule (#writes reaches 0), the oldest queued
// request (minimum warpts) re-enters the validation unit.
type StallBuffer struct {
	lines          int
	entriesPerLine int
	byGranule      map[uint64][]*StalledReq

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
	return &StallBuffer{
		lines:          lines,
		entriesPerLine: entriesPerLine,
		byGranule:      make(map[uint64][]*StalledReq),
	}
}

// SetTracker attaches a GPU-wide occupancy tracker.
func (b *StallBuffer) SetTracker(t *OccTracker) { b.tracker = t }

// Enqueue queues a request, returning false if the buffer is full (the
// transaction must abort instead, per §V-B2).
func (b *StallBuffer) Enqueue(r *StalledReq) bool {
	q, lineExists := b.byGranule[r.Granule]
	if !lineExists && len(b.byGranule) >= b.lines {
		b.RejectedFull++
		return false
	}
	if len(q) >= b.entriesPerLine {
		b.RejectedFull++
		return false
	}
	b.byGranule[r.Granule] = append(q, r)
	b.totalQueued++
	if b.tracker != nil {
		b.tracker.inc()
	}
	b.EnqueueCount++
	b.PerAddrCount++
	b.PerAddrTotal += uint64(len(b.byGranule[r.Granule]))
	if b.totalQueued > b.MaxOccupancy {
		b.MaxOccupancy = b.totalQueued
	}
	return true
}

// Release pops the oldest (minimum warpts) request waiting on granule, if
// any. The caller re-enters it into the validation unit.
func (b *StallBuffer) Release(granule uint64) *StalledReq {
	r := b.oldest(granule)
	if r == nil {
		return nil
	}
	q := slices.DeleteFunc(b.byGranule[granule], func(x *StalledReq) bool { return x == r })
	if len(q) == 0 {
		delete(b.byGranule, granule)
	} else {
		b.byGranule[granule] = q
	}
	b.totalQueued--
	if b.tracker != nil {
		b.tracker.dec()
	}
	return r
}

// oldest returns granule's first minimum-warpts waiter, or nil.
func (b *StallBuffer) oldest(granule uint64) *StalledReq {
	var o *StalledReq
	for _, r := range b.byGranule[granule] {
		if o == nil || r.Warpts < o.Warpts {
			o = r
		}
	}
	return o
}

// DrainAll removes and returns every queued request (rollover flush).
func (b *StallBuffer) DrainAll() []*StalledReq {
	var all []*StalledReq
	for g, q := range b.byGranule {
		all = append(all, q...)
		delete(b.byGranule, g)
	}
	if b.tracker != nil {
		for i := 0; i < b.totalQueued; i++ {
			b.tracker.dec()
		}
	}
	b.totalQueued = 0
	return all
}

// Occupancy returns the number of queued requests.
func (b *StallBuffer) Occupancy() int { return b.totalQueued }

// Waiting returns the number of requests queued on granule.
func (b *StallBuffer) Waiting(granule uint64) int { return len(b.byGranule[granule]) }

// MeanPerAddr returns the average queue depth observed at enqueue time
// (Fig 16's "stalled requests / addr").
func (b *StallBuffer) MeanPerAddr() float64 {
	if b.PerAddrCount == 0 {
		return 0
	}
	return float64(b.PerAddrTotal) / float64(b.PerAddrCount)
}
