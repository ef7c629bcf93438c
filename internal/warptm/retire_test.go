package warptm

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/tm"
)

func TestEmptySubcommitRetiresWithoutConfirm(t *testing.T) {
	// A commit touching only partition 0 must not leave partition 1's VU
	// holding an in-flight slot: its empty subcommit retires on arrival.
	h := newWTMHarness(DefaultConfig(), 2)
	w := h.newTx(1)
	// Find an address homed on partition 0.
	addr := uint64(0x100)
	for h.proto.amap.Partition(addr) != 0 {
		addr += 128
	}
	h.access(t, w, true, addr, 1)
	out := h.commit(t, w)
	if out.FailedLanes != 0 {
		t.Fatalf("commit failed: %+v", out)
	}
	for i, vu := range h.vus {
		if len(vu.inFlight) != 0 {
			t.Fatalf("vu %d holds %d in-flight txs after commit", i, len(vu.inFlight))
		}
	}
	// The uninvolved VU never validated anything.
	if h.vus[1].Validations != 0 && h.vus[0].Validations != 0 {
		// exactly one of them validated (the involved one)
		t.Fatalf("both VUs validated: %d, %d", h.vus[0].Validations, h.vus[1].Validations)
	}
}

func TestDecisionsRetireInCommitIDOrder(t *testing.T) {
	// Three commits to disjoint addresses: even though their validations
	// could finish out of order, the recorded serialization keys must be
	// assigned in commit-id order and the decided counter must advance
	// monotonically to 3.
	h := newWTMHarness(DefaultConfig(), 3)
	addrs := []uint64{0x100, 0x2000, 0x40000}
	var done int
	for i, a := range addrs {
		w := h.newTx(10 + i)
		h.access(t, w, true, a, uint64(i+1))
		h.eng.Schedule(0, func() {
			h.proto.Commit(w, isa.LaneMask(0).Set(0), 0, func(tm.CommitOutcome) { done++ })
		})
	}
	h.eng.Run(0)
	if done != 3 {
		t.Fatalf("completed %d/3 commits", done)
	}
	if h.proto.decided != 3 {
		t.Fatalf("decided = %d, want 3", h.proto.decided)
	}
	stuck := 0
	for _, c := range h.proto.waiting.slots {
		if c != nil {
			stuck++
		}
	}
	if stuck != 0 {
		t.Fatalf("%d decisions stuck waiting", stuck)
	}
	// Keys strictly increase with commit id.
	var keys []uint64
	for _, tx := range h.proto.Committed {
		if len(tx.Writes) > 0 {
			keys = append(keys, tx.SerialTS)
		}
	}
	if len(keys) != 3 {
		t.Fatalf("recorded %d writer txs", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("serialization keys not increasing: %v", keys)
		}
	}
}

func TestSilentCommitHorizonOrdersAfterPriorDecisions(t *testing.T) {
	h := newWTMHarness(DefaultConfig(), 2)
	// Writer commits first (decided=1).
	w1 := h.newTx(1)
	h.access(t, w1, true, 0x100, 7)
	h.commit(t, w1)
	// Read-only tx begins afterwards: its silent key must order after the
	// writer's key.
	w2 := h.newTx(2)
	h.access(t, w2, false, 0x100, 0)
	h.commit(t, w2)
	var writerKey, silentKey uint64
	for _, tx := range h.proto.Committed {
		if len(tx.Writes) > 0 {
			writerKey = tx.SerialTS
		} else {
			silentKey = tx.SerialTS
		}
	}
	if silentKey <= writerKey {
		t.Fatalf("silent key %d not after writer key %d", silentKey, writerKey)
	}
}
