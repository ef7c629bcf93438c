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

// stockNode is a free-list node with an owner field, as the machine
// components' pooled objects have.
type stockNode struct {
	owner *int
	next  *stockNode
}

func newNodeStock() *Stock[stockNode] {
	return NewStock(func(n *stockNode) **stockNode { return &n.next })
}

func chainOf(n int) *stockNode {
	var head *stockNode
	for i := 0; i < n; i++ {
		head = &stockNode{next: head}
	}
	return head
}

func chainLen(head *stockNode) int {
	n := 0
	for x := head; x != nil; x = x.next {
		n++
	}
	return n
}

// A stocked chain no longer than stockBatch comes back whole, by its head,
// and an empty stock gives nil. GC is off so the pool keeps
// what it is given; several chains go in because sync.Pool may drop any one
// of them.
func TestStockKeepsChains(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newNodeStock()
	if s.Get() != nil {
		t.Fatal("an empty stock returned a chain")
	}
	s.Put(nil) // ignored
	if s.Get() != nil {
		t.Fatal("a stocked nil came back")
	}
	heads := map[*stockNode]int{}
	for i := 1; i <= 4; i++ {
		h := chainOf(i)
		heads[h] = i
		s.Put(h)
	}
	got := 0
	for h := s.Get(); h != nil; h = s.Get() {
		if want, ok := heads[h]; !ok || chainLen(h) != want {
			t.Fatalf("took a chain of %d nodes (stocked: %v, want %d)", chainLen(h), ok, want)
		}
		delete(heads, h)
		got++
	}
	if got == 0 {
		t.Fatal("no stocked chain came back")
	}
}

// Put cuts a long list into chains of stockBatch nodes (the last one
// shorter), so a getter that needs a few nodes leaves the rest to others,
// and no node comes back twice. (sync.Pool may drop any chain, and under
// the race detector it does so at random, so not every chain need return.)
func TestStockCutsLongLists(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newNodeStock()
	const n = 3*stockBatch + 5
	head := chainOf(n)
	all := map[*stockNode]bool{}
	for x := head; x != nil; x = x.next {
		all[x] = true
	}
	s.Put(head)
	chains := 0
	for h := s.Get(); h != nil; h = s.Get() {
		if l := chainLen(h); l != stockBatch && l != n%stockBatch {
			t.Fatalf("Get took a chain of %d nodes, want %d or %d", l, stockBatch, n%stockBatch)
		}
		for x := h; x != nil; x = x.next {
			if !all[x] {
				t.Fatal("Get returned a node twice or one never stocked")
			}
			delete(all, x)
		}
		chains++
	}
	if chains == 0 {
		t.Fatal("no stocked chain came back")
	}
}

// Goroutines that take chains, bind them to an owner of their own, use and
// clear them, and stock them again (run under -race) never see a node
// another goroutine holds.
func TestStockConcurrent(t *testing.T) {
	s := newNodeStock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := new(int)
			for i := 0; i < 200; i++ {
				head := s.Get()
				if head == nil {
					head = chainOf(1 + i%(2*stockBatch))
				}
				for x := head; x != nil; x = x.next {
					if x.owner != nil {
						t.Error("a stocked node kept its owner")
						return
					}
					x.owner = owner
					*x.owner++
				}
				for x := head; x != nil; x = x.next {
					x.owner = nil
				}
				s.Put(head)
			}
		}()
	}
	wg.Wait()
}
