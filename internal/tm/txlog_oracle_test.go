package tm

import (
	"slices"
	"testing"

	"getm/internal/isa"
	"getm/internal/sim"
)

// txLogModel is the redo log's contract kept in Go maps: the entries in
// append order, and each (lane, word) pair's read and write entry.
type txLogModel struct {
	reads, writes []LogEntry
	readIdx       map[laneAddr]int
	writeIdx      map[laneAddr]int
}

func newTxLogModel() *txLogModel {
	return &txLogModel{readIdx: map[laneAddr]int{}, writeIdx: map[laneAddr]int{}}
}

func (m *txLogModel) recordRead(lane int, addr, v uint64) {
	k := laneAddr{lane, addr}
	if _, ok := m.readIdx[k]; !ok {
		m.readIdx[k] = len(m.reads)
		m.reads = append(m.reads, LogEntry{Lane: lane, Addr: addr, Value: v})
	}
}

func (m *txLogModel) recordWrite(lane int, addr, v uint64) {
	k := laneAddr{lane, addr}
	if i, ok := m.writeIdx[k]; ok {
		m.writes[i].Value = v
		m.writes[i].Writes++
		return
	}
	m.writeIdx[k] = len(m.writes)
	m.writes = append(m.writes, LogEntry{Lane: lane, Addr: addr, Value: v, Writes: 1})
}

// forwardLoad is the lane's own write to addr if it has one, else its read.
func (m *txLogModel) forwardLoad(lane int, addr uint64) (uint64, bool) {
	if i, ok := m.writeIdx[laneAddr{lane, addr}]; ok {
		return m.writes[i].Value, true
	}
	if i, ok := m.readIdx[laneAddr{lane, addr}]; ok {
		return m.reads[i].Value, true
	}
	return 0, false
}

func (m *txLogModel) conflicts(lane int, addr uint64, isWrite bool) isa.LaneMask {
	var c isa.LaneMask
	for l := 0; l < isa.WarpWidth; l++ {
		if l == lane {
			continue
		}
		_, w := m.writeIdx[laneAddr{l, addr}]
		_, r := m.readIdx[laneAddr{l, addr}]
		if w || (isWrite && r) {
			c = c.Set(l)
		}
	}
	return c
}

func (m *txLogModel) laneWriteCount(lane int) int {
	n := 0
	for _, e := range m.writes {
		if e.Lane == lane {
			n++
		}
	}
	return n
}

// TxLog answers every query as the map model does, over 10,000 seeded
// sequences of records, forwards, conflict checks and resets.
// Each sequence has 1 to 32 lanes on a pool of 1 to 8 words, so a word's
// chains run up to 32 entries long; one log serves every sequence, as a
// pooled log serves many attempts.
func TestTxLogMatchesMapModel(t *testing.T) {
	rng := sim.NewRNG(2025)
	l := NewTxLog()
	for seq := 0; seq < 10_000; seq++ {
		lanes := 1 + rng.Intn(isa.WarpWidth)
		words := 1 + rng.Intn(8)
		base := rng.Uint64n(1<<20) * 8
		l.Reset()
		m := newTxLogModel()
		for op, n := 0, 20+rng.Intn(120); op < n; op++ {
			lane := rng.Intn(lanes)
			addr := base + uint64(rng.Intn(words))*8
			v := rng.Uint64()
			switch k := rng.Intn(100); {
			case k < 30:
				l.RecordRead(lane, addr, v)
				m.recordRead(lane, addr, v)
			case k < 60:
				l.RecordWrite(lane, addr, v)
				m.recordWrite(lane, addr, v)
			case k < 84:
				got, ok := l.ForwardLoad(lane, addr)
				want, wantOK := m.forwardLoad(lane, addr)
				if got != want || ok != wantOK {
					t.Fatalf("seq %d op %d: ForwardLoad(%d, %#x) = %d, %v; want %d, %v", seq, op, lane, addr, got, ok, want, wantOK)
				}
			case k < 95:
				isWrite := rng.Intn(2) == 0
				if got, want := l.Conflicts(lane, addr, isWrite), m.conflicts(lane, addr, isWrite); got != want {
					t.Fatalf("seq %d op %d: Conflicts(%d, %#x, %v) = %032b, want %032b", seq, op, lane, addr, isWrite, got, want)
				}
			case k < 99:
				if got, want := l.LaneWriteCount(lane), m.laneWriteCount(lane); got != want {
					t.Fatalf("seq %d op %d: LaneWriteCount(%d) = %d, want %d", seq, op, lane, got, want)
				}
			default:
				l.Reset()
				m = newTxLogModel()
			}
			if !slices.Equal(l.Reads, m.reads) || !slices.Equal(l.Writes, m.writes) {
				t.Fatalf("seq %d op %d: log entries\nreads  %v\nwrites %v\nwant\nreads  %v\nwrites %v", seq, op, l.Reads, l.Writes, m.reads, m.writes)
			}
		}
		// Every lane's view of every word, once per sequence.
		for lane := 0; lane < lanes; lane++ {
			for w := 0; w < words; w++ {
				addr := base + uint64(w)*8
				if got, want := l.Conflicts(lane, addr, true), m.conflicts(lane, addr, true); got != want {
					t.Fatalf("seq %d: final Conflicts(%d, %#x) = %032b, want %032b", seq, lane, addr, got, want)
				}
				got, ok := l.ForwardLoad(lane, addr)
				want, wantOK := m.forwardLoad(lane, addr)
				if got != want || ok != wantOK {
					t.Fatalf("seq %d: final ForwardLoad(%d, %#x) = %d, %v; want %d, %v", seq, lane, addr, got, ok, want, wantOK)
				}
			}
		}
	}
}
