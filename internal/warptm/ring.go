package warptm

// idRing maps commit ids to entries where ids are dense and retire in order:
// a VU's messages that arrived ahead of its next id, the protocol's
// validated commits awaiting their decision. Every stored id lies in
// [base, base+len(slots)), where base is the owner's next id to retire, so
// a power-of-two ring indexed by id holds them without collisions; put
// grows it when an id lands beyond it. The ring keeps its capacity, and the
// zero value is empty.
type idRing[T any] struct {
	slots []*T
}

// idRingMinSlots is a ring's first size: a few commits in flight.
const idRingMinSlots = 16

// put stores v under id, which must be at least base.
func (r *idRing[T]) put(base, id uint64, v *T) {
	if id-base >= uint64(len(r.slots)) {
		r.grow(base, id)
	}
	r.slots[id&uint64(len(r.slots)-1)] = v
}

// grow re-places the ids base..base+len(slots)-1 into a ring that reaches id.
func (r *idRing[T]) grow(base, id uint64) {
	n := max(len(r.slots), idRingMinSlots)
	for uint64(n) <= id-base {
		n <<= 1
	}
	slots := make([]*T, n)
	oldMask := uint64(len(r.slots) - 1)
	for k := range r.slots {
		i := base + uint64(k)
		slots[i&uint64(n-1)] = r.slots[i&oldMask]
	}
	r.slots = slots
}

// get returns base's entry, or nil when it has none.
func (r *idRing[T]) get(base uint64) *T {
	if len(r.slots) == 0 {
		return nil
	}
	return r.slots[base&uint64(len(r.slots)-1)]
}

// del removes base's entry.
func (r *idRing[T]) del(base uint64) {
	r.slots[base&uint64(len(r.slots)-1)] = nil
}
