package tm

import (
	"testing"

	"getm/internal/isa"
)

// Gate: the TxLog record/forward path is allocation-free once the log's
// table has grown to the transaction footprint. Entries and their chain
// links append into reused slices and the address table is invalidated by
// a generation bump on Reset, so steady-state attempts touch no allocator.
func TestTxLogHotPathAllocs(t *testing.T) {
	l := NewTxLog()
	var sink uint64
	round := func() {
		for lane := 0; lane < isa.WarpWidth; lane++ {
			a := uint64(0x1000 + lane*8)
			l.RecordRead(lane, a, 1)
			l.RecordWrite(lane, a+512, 2)
			l.RecordWrite(lane, a+512, 3) // coalesced rewrite
			if v, ok := l.ForwardLoad(lane, a+512); ok {
				sink += v
			}
			if v, ok := l.ForwardLoad(lane, a); ok {
				sink += v
			}
			sink += uint64(l.Conflicts(lane, a, true))
			sink += uint64(l.LaneWriteCount(lane))
		}
		l.Reset()
	}
	round() // grow the table and slices to the footprint
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("TxLog record/forward path allocates %.1f per attempt, want 0", allocs)
	}
	_ = sink
}
