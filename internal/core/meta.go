package core

import (
	"fmt"

	"getm/internal/sim"
)

// Entry is one granule's precise metadata (Table I).
type Entry struct {
	Granule uint64
	// WTS is one more than the logical time of the last write.
	WTS uint64
	// RTS is the logical time of the last read.
	RTS uint64
	// Writes is the outstanding write-reservation count; the granule is
	// locked while it is non-zero.
	Writes int
	// Owner is the reserving transaction's global warp id (valid while
	// Writes > 0).
	Owner int

	valid bool
}

// metaWays and approxWays recycle the cuckoo ways and approximate-filter
// arrays of finished runs' tables (MetaTable.Recycle).
var (
	metaWays   sim.Recycler[Entry]
	approxWays sim.Recycler[uint64]
)

// hashFamily generates the H3-style hash functions used by both the cuckoo
// table and the approximate bloom filter.
type hashFamily struct {
	seeds []uint64
	mask  uint64
}

func newHashFamily(ways, slotsPerWay int, rng *sim.RNG) hashFamily {
	if slotsPerWay&(slotsPerWay-1) != 0 {
		panic("core: slots per way must be a power of two")
	}
	seeds := make([]uint64, ways)
	for i := range seeds {
		seeds[i] = rng.Uint64() | 1
	}
	return hashFamily{seeds: seeds, mask: uint64(slotsPerWay - 1)}
}

func (h hashFamily) slot(way int, granule uint64) int {
	return int(sim.Mix64(granule*h.seeds[way]) & h.mask)
}

// MetaTable is one partition's metadata storage structure (Fig 8): a
// CuckooWays-way cuckoo hash table with a small fully associative stash and
// an unbounded in-memory overflow list for precise metadata, backed by an
// approximate recency bloom filter for evicted (inactive) granules.
//
// Lookup cost is 1 cycle (all ways and the stash probe in parallel);
// insertions that displace entries cost one extra cycle per swap. The cost
// of each access is reported so the harness can reproduce Fig 13.
type MetaTable struct {
	cfg         Config
	slotsPerWay int
	hashes      hashFamily
	ways        [][]Entry
	stash       []Entry
	overflow    map[uint64]*Entry
	approx      *ApproxTable
	rng         *sim.RNG

	// Lookups/Inserts/Evictions/StashedEntries/OverflowInserts count
	// microarchitectural events for the stats in Figs 13-14.
	Lookups         uint64
	Evictions       uint64
	StashedEntries  uint64
	OverflowInserts uint64
}

// NewMetaTable builds a per-partition table holding entries slots in the
// cuckoo ways plus the configured stash, with approxEntries approximate
// slots.
func NewMetaTable(cfg Config, entries, approxEntries int, rng *sim.RNG) *MetaTable {
	ways := cfg.CuckooWays
	if ways <= 0 {
		panic("core: need at least one cuckoo way")
	}
	perWay := nextPow2(maxInt(entries/ways, 1))
	t := &MetaTable{
		cfg:         cfg,
		slotsPerWay: perWay,
		hashes:      newHashFamily(ways, perWay, rng.Fork(1)),
		ways:        make([][]Entry, ways),
		overflow:    make(map[uint64]*Entry),
		approx:      NewApproxTable(cfg.ApproxWays, approxEntries, rng.Fork(2)),
		rng:         rng.Fork(3),
	}
	for i := range t.ways {
		t.ways[i] = metaWays.Get(perWay)
	}
	return t
}

// Recycle hands the cuckoo ways and the approximate table's arrays to the
// next table of the same geometry built in this process. The table must not
// be used afterwards.
func (t *MetaTable) Recycle() {
	for _, w := range t.ways {
		metaWays.Put(w)
	}
	a := t.approx
	for w := range a.wts {
		approxWays.Put(a.wts[w])
		approxWays.Put(a.rts[w])
	}
	t.ways, a.wts, a.rts = nil, nil, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// find returns the precise entry for granule, if present, and reports whether
// it lives on the in-memory overflow list (so callers don't re-probe the map).
func (t *MetaTable) find(granule uint64) (e *Entry, inOverflow bool) {
	for w := range t.ways {
		e := &t.ways[w][t.hashes.slot(w, granule)]
		if e.valid && e.Granule == granule {
			return e, false
		}
	}
	for i := range t.stash {
		if t.stash[i].valid && t.stash[i].Granule == granule {
			return &t.stash[i], false
		}
	}
	if len(t.overflow) == 0 {
		return nil, false // the usual case: a miss skips the map probe
	}
	if e, ok := t.overflow[granule]; ok {
		return e, true
	}
	return nil, false
}

// Lookup returns the precise entry for granule, creating it from the
// approximate metadata on a miss (the paper "reinserts" missing granules so
// in-flight accesses always have precise tracking). The returned cycle count
// is the access latency contribution of the metadata structure (>= 1), and
// overflowed reports whether the access had to touch the in-memory overflow
// list.
func (t *MetaTable) Lookup(granule uint64) (e *Entry, cycles sim.Cycle, overflowed bool) {
	t.Lookups++
	if e, inOverflow := t.find(granule); e != nil {
		return e, 1, inOverflow
	}
	wts, rts := t.approx.Lookup(granule)
	fresh := Entry{Granule: granule, WTS: wts, RTS: rts, valid: true}
	ptr, extra, overflowed := t.insert(fresh)
	return ptr, 1 + extra, overflowed
}

// insert places e in the cuckoo structure, displacing entries as needed.
// Unlocked (#writes == 0) victims are evicted into the approximate table; a
// displacement chain that exceeds MaxKicks lands in the stash, and if the
// stash is full, in the overflow list.
func (t *MetaTable) insert(e Entry) (ptr *Entry, extra sim.Cycle, overflowed bool) {
	cur := e
	for kick := 0; ; kick++ {
		// Any empty candidate slot?
		for w := range t.ways {
			slot := &t.ways[w][t.hashes.slot(w, cur.Granule)]
			if !slot.valid {
				*slot = cur
				return t.resolve(e.Granule, slot, &cur), extra, false
			}
		}
		// Any unlocked candidate? Evict it to the approximate table. The
		// entry being inserted is exempt: evicting it mid-chain would lose
		// precise tracking for the very access we are serving.
		for w := range t.ways {
			slot := &t.ways[w][t.hashes.slot(w, cur.Granule)]
			if slot.Writes == 0 && slot.Granule != e.Granule {
				t.approx.Insert(slot.Granule, slot.WTS, slot.RTS)
				t.Evictions++
				*slot = cur
				extra++
				return t.resolve(e.Granule, slot, &cur), extra, false
			}
		}
		if kick >= t.cfg.MaxKicks {
			break
		}
		// All candidates locked: displace a random one to its own alternate
		// location (classic cuckoo random walk).
		w := t.rng.Intn(len(t.ways))
		slot := &t.ways[w][t.hashes.slot(w, cur.Granule)]
		cur, *slot = *slot, cur
		extra++
	}
	// Chain too long: the last displaced entry goes to the stash.
	for i := range t.stash {
		if !t.stash[i].valid {
			t.stash[i] = cur
			t.StashedEntries++
			return t.resolve(e.Granule, &t.stash[i], &cur), extra, false
		}
	}
	if len(t.stash) < t.cfg.StashEntries {
		t.stash = append(t.stash, cur)
		t.StashedEntries++
		return t.resolve(e.Granule, &t.stash[len(t.stash)-1], &cur), extra, false
	}
	// Stash full too: spill to the unbounded overflow space in main memory.
	ov := cur
	t.overflow[cur.Granule] = &ov
	t.OverflowInserts++
	extra += t.cfg.OverflowPenalty
	return t.resolve(e.Granule, &ov, &cur), extra, true
}

// resolve returns the pointer to the entry for granule after an insertion
// that may have displaced it: if the just-written slot holds the granule we
// asked for, use it; otherwise the displacement chain moved it elsewhere.
func (t *MetaTable) resolve(granule uint64, placed *Entry, _ *Entry) *Entry {
	if placed.valid && placed.Granule == granule {
		return placed
	}
	e, _ := t.find(granule)
	if e == nil {
		panic(fmt.Sprintf("core: granule %#x lost during cuckoo insertion", granule))
	}
	return e
}

// Release decrements the write reservation on granule by n (commit/cleanup
// processing) and reports the remaining count.
func (t *MetaTable) Release(granule uint64, n int) int {
	e, _ := t.find(granule)
	if e == nil {
		panic(fmt.Sprintf("core: release of untracked granule %#x", granule))
	}
	e.Writes -= n
	if e.Writes < 0 {
		panic(fmt.Sprintf("core: #writes underflow on granule %#x", granule))
	}
	return e.Writes
}

// LockedEntries returns the number of precise entries with live write
// reservations (used by invariant checks: must be zero after a run).
func (t *MetaTable) LockedEntries() int {
	n := 0
	for w := range t.ways {
		for i := range t.ways[w] {
			if t.ways[w][i].valid && t.ways[w][i].Writes > 0 {
				n++
			}
		}
	}
	for i := range t.stash {
		if t.stash[i].valid && t.stash[i].Writes > 0 {
			n++
		}
	}
	for _, e := range t.overflow {
		if e.Writes > 0 {
			n++
		}
	}
	return n
}

// MaxTimestamp returns the largest wts/rts tracked (rollover trigger).
func (t *MetaTable) MaxTimestamp() uint64 {
	var m uint64
	consider := func(e *Entry) {
		if !e.valid {
			return
		}
		if e.WTS > m {
			m = e.WTS
		}
		if e.RTS > m {
			m = e.RTS
		}
	}
	for w := range t.ways {
		for i := range t.ways[w] {
			consider(&t.ways[w][i])
		}
	}
	for i := range t.stash {
		consider(&t.stash[i])
	}
	for _, e := range t.overflow {
		consider(e)
	}
	if a := t.approx.MaxTimestamp(); a > m {
		m = a
	}
	return m
}

// Flush clears all metadata (rollover). It panics if any granule is still
// locked — the rollover protocol drains transactions first.
func (t *MetaTable) Flush() {
	if t.LockedEntries() != 0 {
		panic("core: flushing metadata with live write reservations")
	}
	for w := range t.ways {
		for i := range t.ways[w] {
			t.ways[w][i] = Entry{}
		}
	}
	for i := range t.stash {
		t.stash[i] = Entry{}
	}
	t.overflow = make(map[uint64]*Entry)
	t.approx.Flush()
}

// ApproxTable is the recency bloom filter for inactive granules: ApproxWays
// ways indexed by independent hashes; each entry stores the maximum wts and
// rts of all granules that mapped to it. Lookups return the minimum across
// ways, so collisions only ever overestimate — which may abort extra
// transactions but never breaks consistency.
type ApproxTable struct {
	hashes hashFamily
	wts    [][]uint64
	rts    [][]uint64

	Inserts uint64
}

// NewApproxTable builds a filter with the given total entry budget.
func NewApproxTable(ways, totalEntries int, rng *sim.RNG) *ApproxTable {
	if ways <= 0 {
		panic("core: need at least one approx way")
	}
	perWay := nextPow2(maxInt(totalEntries/ways, 1))
	a := &ApproxTable{
		hashes: newHashFamily(ways, perWay, rng),
		wts:    make([][]uint64, ways),
		rts:    make([][]uint64, ways),
	}
	for i := 0; i < ways; i++ {
		a.wts[i] = approxWays.Get(perWay)
		a.rts[i] = approxWays.Get(perWay)
	}
	return a
}

// Insert folds a granule's timestamps into the filter (max per way).
func (a *ApproxTable) Insert(granule, wts, rts uint64) {
	a.Inserts++
	for w := range a.wts {
		s := a.hashes.slot(w, granule)
		if wts > a.wts[w][s] {
			a.wts[w][s] = wts
		}
		if rts > a.rts[w][s] {
			a.rts[w][s] = rts
		}
	}
}

// Lookup returns the (over)estimated timestamps for granule: the minimum
// stored wts and rts across ways.
func (a *ApproxTable) Lookup(granule uint64) (wts, rts uint64) {
	wts, rts = ^uint64(0), ^uint64(0)
	for w := range a.wts {
		s := a.hashes.slot(w, granule)
		if a.wts[w][s] < wts {
			wts = a.wts[w][s]
		}
		if a.rts[w][s] < rts {
			rts = a.rts[w][s]
		}
	}
	return wts, rts
}

// MaxTimestamp returns the largest timestamp stored.
func (a *ApproxTable) MaxTimestamp() uint64 {
	var m uint64
	for w := range a.wts {
		for i := range a.wts[w] {
			if a.wts[w][i] > m {
				m = a.wts[w][i]
			}
			if a.rts[w][i] > m {
				m = a.rts[w][i]
			}
		}
	}
	return m
}

// Flush zeroes the filter (rollover).
func (a *ApproxTable) Flush() {
	for w := range a.wts {
		for i := range a.wts[w] {
			a.wts[w][i] = 0
			a.rts[w][i] = 0
		}
	}
}
