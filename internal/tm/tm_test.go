package tm

import (
	"testing"
	"testing/quick"

	"getm/internal/isa"
	"getm/internal/mem"
)

func TestTxLogReadRecording(t *testing.T) {
	l := NewTxLog()
	l.RecordRead(3, 0x100, 7)
	l.RecordRead(3, 0x100, 7) // duplicate: recorded once
	l.RecordRead(4, 0x100, 7) // other lane: separate entry
	if len(l.Reads) != 2 {
		t.Fatalf("reads = %d, want 2", len(l.Reads))
	}
	if v, ok := l.ForwardLoad(3, 0x100); !ok || v != 7 {
		t.Fatal("a logged read should forward")
	}
	if _, ok := l.ForwardLoad(3, 0x108); ok {
		t.Fatal("an unread word should not forward")
	}
}

func TestTxLogWriteCoalescing(t *testing.T) {
	l := NewTxLog()
	l.RecordWrite(1, 0x80, 10)
	l.RecordWrite(1, 0x80, 20)
	if len(l.Writes) != 1 || l.Writes[0].Value != 20 || l.Writes[0].Writes != 2 {
		t.Fatalf("writes = %+v", l.Writes)
	}
	if v, ok := l.ForwardLoad(1, 0x80); !ok || v != 20 {
		t.Fatal("forwarding should return latest write")
	}
	if _, ok := l.ForwardLoad(2, 0x80); ok {
		t.Fatal("forwarding must be lane-private")
	}
}

func TestTxLogConflicts(t *testing.T) {
	l := NewTxLog()
	l.RecordRead(0, 0x40, 1)
	l.RecordWrite(1, 0x40, 2)
	// Read conflicts with lane 1's write.
	if m := l.Conflicts(2, 0x40, false); m != isa.LaneMask(0).Set(1) {
		t.Fatalf("read conflicts = %032b", m)
	}
	// Write conflicts with both reader and writer.
	want := isa.LaneMask(0).Set(0).Set(1)
	if m := l.Conflicts(2, 0x40, true); m != want {
		t.Fatalf("write conflicts = %032b", m)
	}
	// A lane never conflicts with itself.
	if m := l.Conflicts(1, 0x40, true); m.Bit(1) {
		t.Fatal("self conflict")
	}
	// Read-read never conflicts.
	l2 := NewTxLog()
	l2.RecordRead(0, 0x40, 1)
	if m := l2.Conflicts(1, 0x40, false); m != 0 {
		t.Fatal("read-read flagged as conflict")
	}
}

func TestTxLogReset(t *testing.T) {
	l := NewTxLog()
	l.RecordRead(0, 0x40, 1)
	l.RecordWrite(0, 0x40, 2)
	l.Reset()
	if len(l.Reads) != 0 || len(l.Writes) != 0 {
		t.Fatal("reset left entries")
	}
	if _, ok := l.ForwardLoad(0, 0x40); ok {
		t.Fatal("reset left forwarding state")
	}
	if l.Conflicts(1, 0x40, true) != 0 {
		t.Fatal("reset left conflict state")
	}
}

func TestTxLogLaneEntries(t *testing.T) {
	l := NewTxLog()
	l.RecordRead(0, 0x40, 1)
	l.RecordRead(1, 0x48, 2)
	l.RecordWrite(0, 0x50, 3)
	r, w := l.LaneEntries(0)
	if len(r) != 1 || len(w) != 1 || r[0].Addr != 0x40 || w[0].Addr != 0x50 {
		t.Fatalf("lane entries: r=%v w=%v", r, w)
	}
}

// laneAddr keys a single lane's access to one word (the tests model the
// log's forwarding contract with it).
type laneAddr struct {
	lane int
	addr uint64
}

// Property: ForwardLoad returns exactly the last value written by that lane
// if it wrote the word, else the value its first read observed. The
// addresses come from a pool of 8 words, so every word's chains hold many
// lanes.
func TestTxLogForwardProperty(t *testing.T) {
	prop := func(accesses []struct {
		Lane uint8
		Addr uint8
		Val  uint32
		Read bool
	}) bool {
		l := NewTxLog()
		lastWrite := map[laneAddr]uint64{}
		firstRead := map[laneAddr]uint64{}
		for _, a := range accesses {
			k := laneAddr{int(a.Lane % 32), uint64(a.Addr%8) * 8}
			if a.Read {
				l.RecordRead(k.lane, k.addr, uint64(a.Val))
				if _, ok := firstRead[k]; !ok {
					firstRead[k] = uint64(a.Val)
				}
			} else {
				l.RecordWrite(k.lane, k.addr, uint64(a.Val))
				lastWrite[k] = uint64(a.Val)
			}
		}
		for lane := 0; lane < isa.WarpWidth; lane++ {
			for addr := uint64(0); addr < 64; addr += 8 {
				k := laneAddr{lane, addr}
				w, wok := lastWrite[k]
				r, rok := firstRead[k]
				want, wantOK := r, rok
				if wok {
					want, wantOK = w, true
				}
				if v, ok := l.ForwardLoad(lane, addr); ok != wantOK || v != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSerializableAcceptsSerialRun(t *testing.T) {
	init := mem.NewImage()
	init.Write(0x10, 100)
	final := mem.NewImage()
	final.Write(0x10, 102)
	txs := []CommittedTx{
		{SerialTS: 1, Seq: 0,
			Reads:  []LogEntry{{Addr: 0x10, Value: 100}},
			Writes: []LogEntry{{Addr: 0x10, Value: 101}}},
		{SerialTS: 2, Seq: 1,
			Reads:  []LogEntry{{Addr: 0x10, Value: 101}},
			Writes: []LogEntry{{Addr: 0x10, Value: 102}}},
	}
	if err := CheckSerializable(init, final, txs); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
}

func TestCheckSerializableRejectsStaleRead(t *testing.T) {
	init := mem.NewImage()
	init.Write(0x10, 100)
	txs := []CommittedTx{
		{SerialTS: 1, Writes: []LogEntry{{Addr: 0x10, Value: 101}}},
		// Reads the pre-tx1 value despite serializing after tx1.
		{SerialTS: 2, Reads: []LogEntry{{Addr: 0x10, Value: 100}}},
	}
	if err := CheckSerializable(init, nil, txs); err == nil {
		t.Fatal("stale read accepted")
	}
}

func TestCheckSerializableRejectsSameTSWAW(t *testing.T) {
	init := mem.NewImage()
	txs := []CommittedTx{
		{SerialTS: 5, Seq: 0, Writes: []LogEntry{{Addr: 0x10, Value: 1}}},
		{SerialTS: 5, Seq: 1, Writes: []LogEntry{{Addr: 0x10, Value: 2}}},
	}
	if err := CheckSerializable(init, nil, txs); err == nil {
		t.Fatal("same-timestamp WAW accepted")
	}
}

func TestCheckSerializableSameTSGroupSnapshot(t *testing.T) {
	// Two same-ts transactions with crossed reads and disjoint writes (the
	// write-skew corner that GETM's equal-timestamp rule admits) must be
	// accepted: each read observed pre-group state.
	init := mem.NewImage()
	init.Write(0x10, 1)
	init.Write(0x18, 2)
	txs := []CommittedTx{
		{SerialTS: 5, Seq: 0,
			Reads:  []LogEntry{{Addr: 0x18, Value: 2}},
			Writes: []LogEntry{{Addr: 0x10, Value: 11}}},
		{SerialTS: 5, Seq: 1,
			Reads:  []LogEntry{{Addr: 0x10, Value: 1}},
			Writes: []LogEntry{{Addr: 0x18, Value: 12}}},
	}
	if err := CheckSerializable(init, nil, txs); err != nil {
		t.Fatalf("same-ts snapshot group rejected: %v", err)
	}
}

func TestCheckSerializableFinalImageMismatch(t *testing.T) {
	init := mem.NewImage()
	final := mem.NewImage()
	final.Write(0x10, 999)
	txs := []CommittedTx{
		{SerialTS: 1, Writes: []LogEntry{{Addr: 0x10, Value: 1}}},
	}
	if err := CheckSerializable(init, final, txs); err == nil {
		t.Fatal("final image mismatch accepted")
	}
}

func TestAbortCauseString(t *testing.T) {
	if CauseWAR.String() != "war" || CauseStallFull.String() != "stall-full" {
		t.Fatal("cause names wrong")
	}
	if AbortCause(99).String() == "" {
		t.Fatal("unknown cause should still render")
	}
}
