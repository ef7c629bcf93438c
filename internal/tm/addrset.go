package tm

import "getm/internal/sim"

// AddrSet is an allocation-free set of addresses for per-commit bookkeeping
// (WarpTM's hazard write sets, the commit units' 32-byte regions, EAPG's
// in-flight write sets): a sim.Table with no payload, so Reset empties it in
// O(1) and keeps its capacity, and a set reused across commits stops
// allocating once it has grown to the largest footprint. The zero value is
// an empty set.
type AddrSet struct {
	t sim.Table[struct{}]
}

// Len returns the number of addresses in the set.
func (s *AddrSet) Len() int { return s.t.Len() }

// Reset empties the set, keeping its capacity.
func (s *AddrSet) Reset() { s.t.Reset() }

// Has reports whether addr is in the set.
func (s *AddrSet) Has(addr uint64) bool { return s.t.Find(addr) != nil }

// Add inserts addr.
func (s *AddrSet) Add(addr uint64) { s.t.Ensure(addr) }
