package mem

import (
	"fmt"
	"math/bits"

	"getm/internal/sim"
)

// llcArrays recycles the tag and LRU arrays of finished runs' caches.
var llcArrays sim.Recycler[uint64]

// LLC is a set-associative last-level-cache tag array with LRU replacement.
// Data values live in the shared Image; the tag array only determines hit or
// miss timing at the partition. One LLC instance models one partition's bank.
type LLC struct {
	ways      int
	lineShift uint     // log2(line size): a lookup shifts and masks, never divides
	setMask   uint64   // sets-1
	tags      []uint64 // sets*ways entries; 0 means invalid (line 0 never cached: offset by +1)
	lru       []uint64 // per entry, lower = older
	clock     uint64   // monotone; 64-bit so it never wraps within a run

	Hits   uint64
	Misses uint64
}

// CheckLLC reports why NewLLC refuses a cache of capacityBytes with the
// given associativity and line size, or nil when it builds one. Capacity
// must divide evenly into sets, and the line size and set count must be
// powers of two (Table II's 128 B lines with 128 or 512 sets are).
func CheckLLC(capacityBytes, ways, lineBytes int) error {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return fmt.Errorf("line size %d B is not a power of two", lineBytes)
	}
	if ways <= 0 {
		return fmt.Errorf("%d ways: a cache needs at least one", ways)
	}
	lines := capacityBytes / lineBytes
	if sets := lines / ways; lines == 0 || lines%ways != 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("%d B in %d B lines does not make a power-of-two number of %d-way sets", capacityBytes, lineBytes, ways)
	}
	return nil
}

// NewLLC builds a cache of capacityBytes with the given associativity and
// line size, which CheckLLC must accept.
func NewLLC(capacityBytes, ways, lineBytes int) *LLC {
	if err := CheckLLC(capacityBytes, ways, lineBytes); err != nil {
		panic("mem: invalid LLC geometry: " + err.Error())
	}
	sets := capacityBytes / lineBytes / ways
	return &LLC{
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sets - 1),
		tags:      llcArrays.Get(sets * ways),
		lru:       llcArrays.Get(sets * ways),
	}
}

// Recycle hands the tag and LRU arrays to the next cache of the same
// geometry built in this process. The cache must not be used afterwards.
func (c *LLC) Recycle() {
	llcArrays.Put(c.tags)
	llcArrays.Put(c.lru)
	c.tags, c.lru = nil, nil
}

// tagOf returns the tag of the line holding addr: its line number plus one,
// so tag 0 means invalid.
func (c *LLC) tagOf(addr uint64) uint64 { return addr>>c.lineShift + 1 }

func (c *LLC) setOf(line uint64) int { return int((line ^ (line >> 11)) & c.setMask) }

// Access looks up the line containing addr, filling on miss. It returns true
// on hit.
func (c *LLC) Access(addr uint64) bool {
	line := c.tagOf(addr)
	set := c.setOf(line)
	base := set * c.ways
	c.clock++
	victim, victimLRU := base, c.lru[base]
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.lru[i] = c.clock
			c.Hits++
			return true
		}
		if c.lru[i] < victimLRU {
			victim, victimLRU = i, c.lru[i]
		}
	}
	c.Misses++
	c.tags[victim] = line
	c.lru[victim] = c.clock
	return false
}

// Contains reports whether the line holding addr is currently cached, without
// updating replacement state.
func (c *LLC) Contains(addr uint64) bool {
	line := c.tagOf(addr)
	base := c.setOf(line) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			return true
		}
	}
	return false
}

// DRAM models an off-chip channel with a fixed access latency plus per-bank
// occupancy (a request to a busy bank waits for the bank to free).
type DRAM struct {
	Banks     int
	AccessLat uint64 // cycles per access once the bank is free
	BankBusy  uint64 // cycles the bank stays occupied per access
	bankFree  []uint64

	Accesses uint64
}

// NewDRAM builds a channel model.
func NewDRAM(banks int, accessLat, bankBusy uint64) *DRAM {
	if banks <= 0 {
		panic("mem: DRAM needs at least one bank")
	}
	return &DRAM{Banks: banks, AccessLat: accessLat, BankBusy: bankBusy, bankFree: make([]uint64, banks)}
}

// Latency returns the completion delay for an access to addr issued at cycle
// now, updating bank occupancy.
func (d *DRAM) Latency(addr, now uint64) uint64 {
	bank := int((addr >> 10) % uint64(d.Banks))
	start := now
	if d.bankFree[bank] > start {
		start = d.bankFree[bank]
	}
	d.bankFree[bank] = start + d.BankBusy
	d.Accesses++
	return start + d.AccessLat - now
}
