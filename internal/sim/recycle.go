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
