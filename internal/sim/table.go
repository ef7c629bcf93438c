package sim

// Table maps uint64 keys to payloads of type V without allocating in steady
// state: the simulator's per-lane and per-event lookups (transaction logs'
// address tables, address sets, store scoreboards, memory page tables) are
// each one probe into one of these. It is open-addressed with linear
// probing over Mix64 of the key, and every slot carries a generation tag: a
// slot is live when its tag matches the table's, so Reset empties the table
// in O(1) and keeps its capacity, and a table reused across transactions
// stops allocating once it has grown to the largest footprint. Inserts keep
// the load below 3/4 by doubling the slots. The zero value is an empty
// table. A payload pointer returned by Find or Ensure is valid until the
// next Ensure (which may grow the table) or Reset.
type Table[V any] struct {
	slots []tableSlot[V]
	gen   uint32
	n     int
}

// tableSlot is one slot. The payload sits between the tag and the key, so a
// zero-size payload (a set) adds no padding.
type tableSlot[V any] struct {
	gen uint32
	val V
	key uint64
}

// tableInitialSlots sizes a table's first allocation: a transaction's or a
// commit's footprint at one partition is a few words.
const tableInitialSlots = 16

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

// Reset empties the table in O(1), keeping its capacity.
func (t *Table[V]) Reset() {
	if t.n == 0 {
		return
	}
	t.n = 0
	t.gen++
	if t.gen == 0 {
		// uint32 wrap: clear so no stale slot can read as live.
		clear(t.slots)
		t.gen = 1
	}
}

// Find returns key's payload, or nil if key is absent.
func (t *Table[V]) Find(key uint64) *V {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for h := Mix64(key) & mask; ; h = (h + 1) & mask {
		s := &t.slots[h]
		if s.gen != t.gen {
			return nil
		}
		if s.key == key {
			return &s.val
		}
	}
}

// Ensure returns key's payload, inserting a zero payload if key is absent.
func (t *Table[V]) Ensure(key uint64) *V {
	if len(t.slots) == 0 {
		t.slots = make([]tableSlot[V], tableInitialSlots)
		t.gen = 1
	} else if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for h := Mix64(key) & mask; ; h = (h + 1) & mask {
		s := &t.slots[h]
		if s.gen != t.gen {
			*s = tableSlot[V]{gen: t.gen, key: key}
			t.n++
			return &s.val
		}
		if s.key == key {
			return &s.val
		}
	}
}

func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]tableSlot[V], 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		s := &old[i]
		if s.gen != t.gen {
			continue
		}
		h := Mix64(s.key) & mask
		for t.slots[h].gen == t.gen {
			h = (h + 1) & mask
		}
		t.slots[h] = *s
	}
}

// Range calls f for every key and its payload, in slot order, until f
// returns false. It is for cold paths (snapshots, recycling); f must not
// insert.
func (t *Table[V]) Range(f func(key uint64, v *V) bool) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.gen == t.gen && !f(s.key, &s.val) {
			return
		}
	}
}
