package sim

import (
	"runtime/debug"
	"sync"
	"testing"
)

// Slices put back dirty come back zeroed, and a Get only ever returns a
// slice of the length it asked for. GC is off so the pools keep what they
// are given; several slices go in because sync.Pool may drop any one of
// them (it does so at random under the race detector).
func TestRecyclerZeroedAndKeyedByLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var r Recycler[uint64]
	put := map[*uint64]bool{}
	var dirty [][]uint64
	for i := 0; i < 8; i++ {
		s := r.Get(64)
		for j := range s {
			s[j] = ^uint64(0)
		}
		put[&s[0]] = true
		dirty = append(dirty, s)
	}
	for _, s := range dirty {
		r.Put(s)
	}

	if s := r.Get(32); len(s) != 32 {
		t.Fatalf("Get(32) returned length %d", len(s))
	} else if put[&s[0]] {
		t.Fatal("Get(32) returned a 64-word array")
	}
	reused := 0
	for i := 0; i < 8; i++ {
		s := r.Get(64)
		if len(s) != 64 {
			t.Fatalf("Get(64) returned length %d", len(s))
		}
		if put[&s[0]] {
			reused++
		}
		for j, v := range s {
			if v != 0 {
				t.Fatalf("recycled word %d = %#x, want 0", j, v)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no array put back was reused")
	}
	r.Put(nil) // an empty slice is ignored
}

// Concurrent Gets and Puts of several lengths (run under -race): every Get
// returns a zeroed slice of its own length, however the arrays move between
// goroutines.
func TestRecyclerConcurrent(t *testing.T) {
	var r Recycler[int32]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 16 << ((g + i) % 3)
				s := r.Get(n)
				if len(s) != n {
					t.Errorf("Get(%d) returned length %d", n, len(s))
					return
				}
				for j := range s {
					if s[j] != 0 {
						t.Errorf("Get(%d): word %d = %d, want 0", n, j, s[j])
						return
					}
					s[j] = int32(g + 1)
				}
				r.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
