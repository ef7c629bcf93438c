package core

import (
	"testing"
	"testing/quick"
)

func TestStallBufferEnqueueRelease(t *testing.T) {
	b := NewStallBuffer(4, 4)
	for i, ts := range []uint64{30, 10, 20} {
		ok := b.Enqueue(&StalledReq{Granule: 1, Warpts: ts, Retry: func() {}})
		if !ok {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if b.Occupancy() != 3 || waiting(b, 1) != 3 {
		t.Fatalf("occupancy=%d waiting=%d", b.Occupancy(), waiting(b, 1))
	}
	// Release order: minimum warpts first.
	want := []uint64{10, 20, 30}
	for _, w := range want {
		r := b.Release(1)
		if r == nil || r.Warpts != w {
			t.Fatalf("release order wrong: got %+v, want ts %d", r, w)
		}
	}
	if b.Release(1) != nil {
		t.Fatal("empty release should return nil")
	}
}

func TestStallBufferLineLimit(t *testing.T) {
	b := NewStallBuffer(2, 4)
	b.Enqueue(&StalledReq{Granule: 1, Warpts: 1})
	b.Enqueue(&StalledReq{Granule: 2, Warpts: 1})
	// Third distinct granule: no free line.
	if b.Enqueue(&StalledReq{Granule: 3, Warpts: 1}) {
		t.Fatal("third line accepted with 2-line buffer")
	}
	if b.RejectedFull != 1 {
		t.Fatalf("rejects = %d", b.RejectedFull)
	}
	// But an existing line still has room.
	if !b.Enqueue(&StalledReq{Granule: 1, Warpts: 2}) {
		t.Fatal("existing line rejected despite space")
	}
}

func TestStallBufferEntryLimit(t *testing.T) {
	b := NewStallBuffer(4, 2)
	b.Enqueue(&StalledReq{Granule: 1, Warpts: 1})
	b.Enqueue(&StalledReq{Granule: 1, Warpts: 2})
	if b.Enqueue(&StalledReq{Granule: 1, Warpts: 3}) {
		t.Fatal("third entry accepted on full line")
	}
}

func TestStallBufferLineFreedAfterDrain(t *testing.T) {
	b := NewStallBuffer(1, 1)
	b.Enqueue(&StalledReq{Granule: 1, Warpts: 1})
	b.Release(1)
	if !b.Enqueue(&StalledReq{Granule: 2, Warpts: 1}) {
		t.Fatal("line not recycled after drain")
	}
}

func TestStallBufferStats(t *testing.T) {
	b := NewStallBuffer(4, 4)
	b.Enqueue(&StalledReq{Granule: 1, Warpts: 1})
	b.Enqueue(&StalledReq{Granule: 1, Warpts: 2})
	b.Enqueue(&StalledReq{Granule: 2, Warpts: 1})
	if b.MaxOccupancy != 3 {
		t.Fatalf("max occupancy = %d", b.MaxOccupancy)
	}
	// Depth samples at enqueue: 1, 2, 1 -> mean 4/3.
	if m := float64(b.PerAddrTotal) / float64(b.PerAddrCount); m < 1.3 || m > 1.35 {
		t.Fatalf("mean per addr = %v", m)
	}
}

// Property: Release always returns the queued request with minimum warpts,
// and occupancy counts stay consistent under arbitrary operation sequences.
func TestStallBufferMinOrderProperty(t *testing.T) {
	prop := func(ops []struct {
		Granule uint8
		Warpts  uint16
		Rel     bool
	}) bool {
		b := NewStallBuffer(8, 8)
		model := map[uint64][]uint64{}
		size := 0
		for _, op := range ops {
			g := uint64(op.Granule % 4)
			if op.Rel {
				r := b.Release(g)
				q := model[g]
				if len(q) == 0 {
					if r != nil {
						return false
					}
					continue
				}
				minI := 0
				for i := range q {
					if q[i] < q[minI] {
						minI = i
					}
				}
				if r == nil || r.Warpts != q[minI] {
					return false
				}
				model[g] = append(q[:minI], q[minI+1:]...)
				size--
			} else {
				ok := b.Enqueue(&StalledReq{Granule: g, Warpts: uint64(op.Warpts)})
				full := len(model[g]) >= 8
				if ok == full {
					return false
				}
				if ok {
					model[g] = append(model[g], uint64(op.Warpts))
					size++
				}
			}
			if b.Occupancy() != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// waiting returns the number of requests queued on granule.
func waiting(b *StallBuffer, granule uint64) int {
	if i := b.line(granule); i >= 0 {
		return len(b.occupied[i].reqs)
	}
	return 0
}
