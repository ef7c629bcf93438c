package sim

import "sync"

// Recycler hands the large backing arrays of a finished run to the next run
// that asks for an array of the same length, on any goroutine. Arrays are
// pooled by length, so arrays of different lengths never mix, and Get zeroes
// what it returns: a recycled array is indistinguishable from a fresh make,
// so a machine built from recycled arrays starts in exactly the state a
// freshly allocated one would. Each length's pool is a sync.Pool, so the
// garbage collector still frees arrays nobody asks for again.
//
// The zero value is ready to use. Whoever calls Put gives the array up: it
// must hold no other reference to it.
type Recycler[T any] struct {
	pools sync.Map // length -> *sync.Pool of *[]T
}

// Get returns a zeroed slice of length n.
func (r *Recycler[T]) Get(n int) []T {
	if p, ok := r.pools.Load(n); ok {
		if s, ok := p.(*sync.Pool).Get().(*[]T); ok {
			clear(*s)
			return *s
		}
	}
	return make([]T, n)
}

// Put hands s back for a later Get of the same length.
func (r *Recycler[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	p, ok := r.pools.Load(len(s))
	if !ok {
		p, _ = r.pools.LoadOrStore(len(s), new(sync.Pool))
	}
	p.(*sync.Pool).Put(&s)
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
// a large machine grew while a concurrent machine builds anew, and, because
// a Stock is a sync.Pool underneath (like Recycler), chains nobody took for
// two garbage collections are freed: what the stocks hold follows what
// recent machines used, not the largest machine ever built.
//
// Whoever stocks a chain gives it up, and must first clear every field that
// points at the finished machine (a pooled closure reaches its owner only
// through such a field), so a stocked chain never keeps a machine alive; the
// taker points those fields at its own machine.
type Stock[T any] struct {
	pool sync.Pool // of *T, each the head of a chain of at most stockBatch nodes
	link func(*T) **T
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
		s.pool.Put(head)
		head = rest
	}
}

// Get takes a stocked chain's head, or returns nil when none is stocked.
func (s *Stock[T]) Get() *T {
	head, _ := s.pool.Get().(*T)
	return head
}
