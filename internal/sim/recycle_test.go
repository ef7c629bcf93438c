package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Arrays put back dirty come back zeroed, last in first out, and a Get only
// ever returns an array of the length it asked for.
func TestRecyclerZeroedAndKeyedByLength(t *testing.T) {
	var r Recycler[uint64]
	var dirty [][]uint64
	for i := 0; i < 8; i++ {
		s := r.Get(64)
		for j := range s {
			s[j] = ^uint64(0)
		}
		dirty = append(dirty, s)
	}
	for _, s := range dirty {
		r.Put(s)
	}

	if s := r.Get(32); len(s) != 32 {
		t.Fatalf("Get(32) returned length %d", len(s))
	} else {
		for _, d := range dirty {
			if &s[0] == &d[0] {
				t.Fatal("Get(32) returned a 64-word array")
			}
		}
	}
	for i := len(dirty) - 1; i >= 0; i-- {
		s := r.Get(64)
		if len(s) != 64 || &s[0] != &dirty[i][0] {
			t.Fatalf("Get(64) %d: not the array put back last", len(dirty)-i)
		}
		for j, v := range s {
			if v != 0 {
				t.Fatalf("recycled word %d = %#x, want 0", j, v)
			}
		}
	}
	r.Put(nil) // an empty slice is ignored
	if s := r.Get(0); len(s) != 0 {
		t.Fatalf("Get(0) returned length %d", len(s))
	}
}

// Getters that take what a holder has before they build (run under -race):
// the holder never keeps more objects than were wanted at once. Demand
// counts an object from before the Get that asks for it to after the Put
// that returns it, so an object built while another is on its way back
// still counts against the peak. Every object built comes back, and none is
// handed to two getters at once.
func TestHolderKeepsAtMostPeakDemand(t *testing.T) {
	type obj struct{ owner int }
	var (
		h                   Holder[*obj]
		demand, peak, built atomic.Int64
		wg                  sync.WaitGroup
	)
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*obj
			for i := 0; i < 300; i++ {
				for n := 1 + (g+i)%5; n > 0; n-- {
					d := demand.Add(1)
					for p := peak.Load(); d > p && !peak.CompareAndSwap(p, d); p = peak.Load() {
					}
					o := h.Get()
					if o == nil {
						o = new(obj)
						built.Add(1)
					}
					if o.owner != 0 {
						t.Errorf("a held object kept its owner %d", o.owner)
						return
					}
					o.owner = g
					mine = append(mine, o)
				}
				for _, o := range mine {
					o.owner = 0
					h.Put(o)
					demand.Add(-1)
				}
				mine = mine[:0]
			}
		}()
	}
	wg.Wait()
	if n := len(h.items); int64(n) != built.Load() || int64(n) > peak.Load() {
		t.Fatalf("holder keeps %d objects, %d built, peak demand %d", n, built.Load(), peak.Load())
	}
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
// last in first out, and an empty stock gives nil.
func TestStockKeepsChains(t *testing.T) {
	s := newNodeStock()
	if s.Get() != nil {
		t.Fatal("an empty stock returned a chain")
	}
	s.Put(nil) // ignored
	if s.Get() != nil {
		t.Fatal("a stocked nil came back")
	}
	var heads []*stockNode
	for i := 1; i <= 4; i++ {
		h := chainOf(i)
		heads = append(heads, h)
		s.Put(h)
	}
	for i := len(heads) - 1; i >= 0; i-- {
		if h := s.Get(); h != heads[i] || chainLen(h) != i+1 {
			t.Fatalf("took a chain of %d nodes, want the last stocked, of %d", chainLen(h), i+1)
		}
	}
	if s.Get() != nil {
		t.Fatal("a chain came back twice")
	}
}

// Put cuts a long list into chains of stockBatch nodes (the last one
// shorter), so a getter that needs a few nodes leaves the rest to others;
// every node comes back, and none twice.
func TestStockCutsLongLists(t *testing.T) {
	s := newNodeStock()
	const n = 3*stockBatch + 5
	head := chainOf(n)
	all := map[*stockNode]bool{}
	for x := head; x != nil; x = x.next {
		all[x] = true
	}
	s.Put(head)
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
	}
	if len(all) != 0 {
		t.Fatalf("%d stocked nodes never came back", len(all))
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
