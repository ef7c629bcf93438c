package mem

import (
	"testing"

	"getm/internal/sim"
)

// pageModel is the image as it was before its pages moved into a table: a
// Go map from page number to page, and the count of words ever written.
type pageModel struct {
	pages map[uint64]*[pageWords]uint64
	wrote map[uint64]bool
}

func newPageModel() *pageModel {
	return &pageModel{pages: map[uint64]*[pageWords]uint64{}, wrote: map[uint64]bool{}}
}

func (m *pageModel) write(addr, v uint64) {
	w := addr / WordBytes
	p := m.pages[w>>pageShift]
	if p == nil {
		p = new([pageWords]uint64)
		m.pages[w>>pageShift] = p
	}
	p[w&(pageWords-1)] = v
	m.wrote[addr] = true
}

func (m *pageModel) read(addr uint64) uint64 {
	w := addr / WordBytes
	if p := m.pages[w>>pageShift]; p != nil {
		return p[w&(pageWords-1)]
	}
	return 0
}

// Image reads as the map of pages does over 10,000 seeded rounds of writes
// and reads spread over the whole address space — word 0, 1<<40 and the
// last word, 1<<63-8 (as tests write), a dense region and random pages —
// with snapshots (a snapshot keeps its contents while the image changes),
// Equal (absent words read as zero) and Recycle (the image reads empty and
// takes writes again).
func TestImageMatchesPageMap(t *testing.T) {
	rng := sim.NewRNG(63)
	bases := []uint64{0, 1 << 40, 1<<63 - 8}
	addrOf := func() uint64 {
		switch rng.Intn(8) {
		case 0, 1:
			return bases[rng.Intn(len(bases))]
		case 2, 3:
			return bases[rng.Intn(2)] + rng.Uint64n(1<<12)*WordBytes
		case 4, 5:
			return 1<<63 - 8 - rng.Uint64n(1<<12)*WordBytes
		case 6:
			return 0x10000 + rng.Uint64n(64)*WordBytes
		default:
			return rng.Uint64() &^ (WordBytes - 1)
		}
	}
	im := NewImage()
	m := newPageModel()
	var touched []uint64
	for round := 0; round < 10_000; round++ {
		for op, n := 0, rng.Intn(60); op < n; op++ {
			a := addrOf()
			if rng.Intn(3) == 0 {
				if got, want := im.Read(a), m.read(a); got != want {
					t.Fatalf("round %d: Read(%#x) = %d, want %d", round, a, got, want)
				}
				continue
			}
			v := rng.Uint64n(4) // zeros too: a written zero counts in Len
			im.Write(a, v)
			m.write(a, v)
			touched = append(touched, a)
		}
		if im.Len() != len(m.wrote) {
			t.Fatalf("round %d: Len %d, want %d", round, im.Len(), len(m.wrote))
		}
		switch rng.Intn(10) {
		case 0:
			// A snapshot is equal, and stays put while the image moves on.
			snap := im.Snapshot()
			if !snap.Equal(im) || !im.Equal(snap) || snap.Len() != im.Len() {
				t.Fatalf("round %d: snapshot differs from its image", round)
			}
			a := addrOf()
			old := m.read(a)
			im.Write(a, old+1)
			m.write(a, old+1)
			touched = append(touched, a)
			if snap.Read(a) != old || snap.Equal(im) || im.Equal(snap) {
				t.Fatalf("round %d: a write to the image at %#x reached its snapshot", round, a)
			}
			// Zeros the image lacks read as absent words: writing them
			// keeps the images equal.
			snap2 := im.Snapshot()
			z := addrOf()
			if im.Read(z) == 0 {
				snap2.Write(z, 0)
				if !snap2.Equal(im) || !im.Equal(snap2) {
					t.Fatalf("round %d: a written zero at %#x broke Equal", round, z)
				}
			}
		case 1:
			im.Recycle()
			m = newPageModel()
			if im.Len() != 0 {
				t.Fatalf("round %d: Len %d after Recycle", round, im.Len())
			}
		}
		for _, a := range touched {
			if got, want := im.Read(a), m.read(a); got != want {
				t.Fatalf("round %d: Read(%#x) = %d, want %d", round, a, got, want)
			}
		}
		if len(touched) > 256 {
			touched = touched[:0]
		}
	}
}

// Partition shifts by the line size where it used to divide; the homes are
// the same for every line size the LLC accepts.
func TestAddressMapPartitionMatchesDivision(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, line := range []int{8, 32, 64, 128, 4096} {
		for _, parts := range []int{1, 6, 8} {
			am := AddressMap{Partitions: parts, LineBytes: line}
			for i := 0; i < 10_000; i++ {
				addr := rng.Uint64() >> uint(rng.Uint64n(64))
				l := addr / uint64(line)
				want := int((l ^ (l >> 7) ^ (l >> 15)) % uint64(parts))
				if got := am.Partition(addr); got != want {
					t.Fatalf("line %d, %d partitions: Partition(%#x) = %d, want %d", line, parts, addr, got, want)
				}
			}
		}
	}
}
