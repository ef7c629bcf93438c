package sim

import (
	"sync"
	"sync/atomic"
)

// Holder keeps the objects of finished machines for the next machines built
// in this process, on any goroutine: a mutex-guarded LIFO stack. No garbage
// collection empties it, so what a warm run allocates does not depend on
// when the collector last ran.
//
// A getter takes from its holder before it builds anything new, so a holder
// never keeps more objects than machines had out at once: an object is built
// only while every object built before it is out. That peak-demand bound is
// what limits a holder, not the collector (DESIGN §6).
//
// The zero value is ready to use. Whoever calls Put gives the object up: it
// must hold no other reference to it, and the object must point at no
// machine, or the holder would keep that machine alive for good.
type Holder[T any] struct {
	mu    sync.Mutex
	items []T
}

// reused counts the objects every holder has handed back (Reused).
var reused atomic.Int64

// Get takes the object put last, or returns the zero value when the holder
// is empty.
func (h *Holder[T]) Get() (x T) {
	h.mu.Lock()
	if n := len(h.items) - 1; n >= 0 {
		var zero T
		x, h.items[n] = h.items[n], zero
		h.items = h.items[:n]
		reused.Add(1)
	}
	h.mu.Unlock()
	return x
}

// Put hands x to the next Get.
func (h *Holder[T]) Put(x T) {
	h.mu.Lock()
	h.items = append(h.items, x)
	h.mu.Unlock()
}

// Reused returns the number of objects holders have handed back in this
// process: 0 means that every run so far was built from fresh objects.
func Reused() int64 { return reused.Load() }

// Recycler hands the large backing arrays of a finished run to the next run
// that asks for an array of the same length, on any goroutine. Arrays are
// held by length, one Holder per length, so arrays of different lengths
// never mix, and Get zeroes what it returns: a recycled array is
// indistinguishable from a fresh make, so a machine built from recycled
// arrays starts in exactly the state a freshly allocated one would. The
// lengths the machine asks for are powers of two, so a Recycler keeps only
// a few.
//
// The zero value is ready to use. Whoever calls Put gives the array up: it
// must hold no other reference to it.
type Recycler[T any] struct {
	mu      sync.Mutex
	lengths map[int]*Holder[[]T]
}

// holder returns the holder of arrays of length n.
func (r *Recycler[T]) holder(n int) *Holder[[]T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.lengths[n]
	if h == nil {
		if r.lengths == nil {
			r.lengths = make(map[int]*Holder[[]T])
		}
		h = new(Holder[[]T])
		r.lengths[n] = h
	}
	return h
}

// Get returns a zeroed slice of length n.
func (r *Recycler[T]) Get(n int) []T {
	if s := r.holder(n).Get(); s != nil {
		clear(s)
		return s
	}
	return make([]T, n)
}

// Put hands s back for a later Get of the same length.
func (r *Recycler[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	r.holder(len(s)).Put(s)
}

// Stock keeps the free-list chains of finished machines for the next
// machines built in this process, on any goroutine. A chain is a linked free
// list handed over by its head: a machine's components stock their lists
// when the machine ends, and a getter whose own list is empty takes a
// stocked chain before it builds a new object. The hot path stays the
// component's own list; the stock costs a walk over each list when a machine
// ends and one Get each time a list runs dry.
//
// Put cuts a list into chains of at most stockBatch nodes, and Get takes one
// of them. So a machine that needs a few objects does not hoard a long list
// a large machine grew while a concurrent machine builds anew. A Stock is a
// Holder of chain heads underneath, so it keeps no more nodes than machines
// had out at once, spares on their own free lists included.
//
// Whoever stocks a chain gives it up, and must first clear every field that
// points at the finished machine (a pooled closure reaches its owner only
// through such a field), so a stocked chain never keeps a machine alive; the
// taker points those fields at its own machine.
type Stock[T any] struct {
	chains Holder[*T] // each the head of a chain of at most stockBatch nodes
	link   func(*T) **T
}

// stockBatch bounds the nodes of one stocked chain: a machine holds at most
// stockBatch-1 spare objects per list it took from, and a list that runs
// dry costs one Get per stockBatch objects. Longer chains left more spares
// idle and raised paper-suite's peak RSS (DESIGN §6).
const stockBatch = 16

// NewStock returns an empty stock of chains that link through the field
// whose address link returns.
func NewStock[T any](link func(*T) **T) *Stock[T] {
	return &Stock[T]{link: link}
}

// Put stocks the list that starts at head, cut into chains of at most
// stockBatch nodes; a nil head is ignored.
func (s *Stock[T]) Put(head *T) {
	for head != nil {
		tail := head
		for i := 1; i < stockBatch && *s.link(tail) != nil; i++ {
			tail = *s.link(tail)
		}
		// Cut before the Put: once stocked, the chain is another
		// goroutine's to take.
		rest := *s.link(tail)
		*s.link(tail) = nil
		s.chains.Put(head)
		head = rest
	}
}

// Get takes a stocked chain's head, or returns nil when none is stocked.
func (s *Stock[T]) Get() *T { return s.chains.Get() }
