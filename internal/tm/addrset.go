package tm

import "getm/internal/sim"

// AddrSet is an allocation-free set of addresses for per-commit bookkeeping
// (WarpTM's hazard write sets, the commit units' 32-byte regions). Like
// TxLog's tables it is open-addressed with linear probing and generation
// tags: Reset empties it in O(1) and keeps its capacity, so a set reused
// across commits stops allocating once it has grown to the largest
// footprint. The zero value is an empty set.
type AddrSet struct {
	slots []addrSlot
	gen   uint32
	n     int
}

// addrSlot is one table slot, live when its gen matches the set's.
type addrSlot struct {
	gen  uint32
	addr uint64
}

// addrSetInitialSlots sizes a set's first table: a commit's footprint at
// one partition is a few words.
const addrSetInitialSlots = 16

// Len returns the number of addresses in the set.
func (s *AddrSet) Len() int { return s.n }

// Reset empties the set, keeping its capacity.
func (s *AddrSet) Reset() {
	if s.n == 0 {
		return
	}
	s.n = 0
	s.gen++
	if s.gen == 0 {
		// uint32 wrap: clear so no stale slot can read as live.
		clear(s.slots)
		s.gen = 1
	}
}

// Has reports whether addr is in the set.
func (s *AddrSet) Has(addr uint64) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for h := sim.Mix64(addr) & mask; ; h = (h + 1) & mask {
		e := &s.slots[h]
		if e.gen != s.gen {
			return false
		}
		if e.addr == addr {
			return true
		}
	}
}

// Add inserts addr, growing the table to keep its load below 3/4.
func (s *AddrSet) Add(addr uint64) {
	if len(s.slots) == 0 {
		s.slots = make([]addrSlot, addrSetInitialSlots)
		s.gen = 1
	} else if (s.n+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for h := sim.Mix64(addr) & mask; ; h = (h + 1) & mask {
		e := &s.slots[h]
		if e.gen != s.gen {
			*e = addrSlot{gen: s.gen, addr: addr}
			s.n++
			return
		}
		if e.addr == addr {
			return
		}
	}
}

func (s *AddrSet) grow() {
	old := s.slots
	s.slots = make([]addrSlot, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, e := range old {
		if e.gen != s.gen {
			continue
		}
		h := sim.Mix64(e.addr) & mask
		for s.slots[h].gen == s.gen {
			h = (h + 1) & mask
		}
		s.slots[h] = e
	}
}
