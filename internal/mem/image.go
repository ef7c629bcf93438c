// Package mem models the GPU memory system: the global memory image (actual
// data values, so WarpTM's value-based validation compares real contents),
// the line-interleaved partition address map, a set-associative LLC tag
// array, and a DRAM timing model with per-bank occupancy.
package mem

import (
	"sync"
	"sync/atomic"
)

// WordBytes is the data word size; all workload values are 64-bit words.
const WordBytes = 8

// Image page geometry: 4 KB pages (512 words) in a page-table map, flat
// word arrays inside — steady-state reads and writes are one map probe (or a
// hit in the one-entry page cache) plus array indexing.
const (
	pageWords = 512
	pageShift = 9 // log2(pageWords)
)

type page struct {
	words [pageWords]uint64
	// written marks words ever written (Len/Snapshot track the footprint,
	// not just non-zero contents).
	written [pageWords / 64]uint64
}

// pagePool holds the pages of recycled images (Image.Recycle) for the next
// image that writes a new page, on any goroutine.
var pagePool sync.Pool

// newPage returns a zeroed page, recycled when one is pooled.
func newPage() *page {
	if p, ok := pagePool.Get().(*page); ok {
		*p = page{}
		return p
	}
	return new(page)
}

// Image holds the architectural memory contents at word granularity.
// It is shared by all partitions (each partition owns a disjoint address
// slice, so no two partitions touch the same word).
//
// By default the image is single-goroutine. SetShared switches it into a
// concurrent mode for the sharded engine, where each memory partition runs in
// its own shard domain: page lookups go through a copy-on-write page table
// published with an atomic pointer, the written-footprint bitmap and word
// count become atomic (words within one page span several partitions'
// lines), and the one-entry page cache is bypassed. Word stores stay plain —
// the partition interleave guarantees no two domains touch the same word,
// and the shard barrier provides the happens-before edge for any later
// cross-domain reader.
type Image struct {
	pages map[uint64]*page
	count int // words ever written
	// One-entry page cache: consecutive accesses cluster heavily by page.
	lastNo   uint64
	lastPage *page

	shared bool
	mu     sync.Mutex // serializes shared-mode page allocation
	cpages atomic.Pointer[map[uint64]*page]
	ccount atomic.Int64
}

// NewImage returns an empty (all-zero) memory image.
func NewImage() *Image { return &Image{pages: make(map[uint64]*page), lastNo: ^uint64(0)} }

// SetShared switches the image into concurrent mode (see the type comment).
// Call once, before handing the image to concurrently running partitions;
// there is no way back, but every accessor keeps working after the run ends.
func (im *Image) SetShared() {
	if im.shared {
		return
	}
	im.shared = true
	im.lastNo, im.lastPage = ^uint64(0), nil
	m := im.pages
	im.cpages.Store(&m)
	im.ccount.Store(int64(im.count))
}

// sync re-adopts the shared-mode state into the plain fields so that
// single-goroutine accessors (Len, Snapshot, Equal) see the final contents.
func (im *Image) sync() {
	if im.shared {
		im.pages = *im.cpages.Load()
		im.count = int(im.ccount.Load())
	}
}

// writeShared is Write in concurrent mode.
func (im *Image) writeShared(addr, val uint64) {
	wordNo := addr / WordBytes
	no := wordNo >> pageShift
	p := (*im.cpages.Load())[no]
	if p == nil {
		p = im.allocShared(no)
	}
	off := wordNo & (pageWords - 1)
	bit := uint64(1) << (off % 64)
	w := &p.written[off/64]
	// CAS loop rather than atomic.OrUint64, which needs a newer language
	// version than the module targets.
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			break
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			im.ccount.Add(1)
			break
		}
	}
	p.words[off] = val
}

// allocShared publishes a new page copy-on-write under the allocation lock.
func (im *Image) allocShared(no uint64) *page {
	im.mu.Lock()
	defer im.mu.Unlock()
	cur := *im.cpages.Load()
	if p := cur[no]; p != nil {
		return p
	}
	next := make(map[uint64]*page, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	p := new(page)
	next[no] = p
	im.cpages.Store(&next)
	return p
}

func (im *Image) pageFor(wordNo uint64) *page {
	no := wordNo >> pageShift
	if no == im.lastNo && im.lastPage != nil {
		return im.lastPage
	}
	p := im.pages[no]
	if p != nil {
		im.lastNo, im.lastPage = no, p
	}
	return p
}

// Read returns the word at the (word-aligned) byte address.
func (im *Image) Read(addr uint64) uint64 {
	wordNo := addr / WordBytes
	var p *page
	if im.shared {
		p = (*im.cpages.Load())[wordNo>>pageShift]
	} else {
		p = im.pageFor(wordNo)
	}
	if p == nil {
		return 0
	}
	return p.words[wordNo&(pageWords-1)]
}

// Write stores val at the (word-aligned) byte address.
func (im *Image) Write(addr, val uint64) {
	if im.shared {
		im.writeShared(addr, val)
		return
	}
	wordNo := addr / WordBytes
	p := im.pageFor(wordNo)
	if p == nil {
		p = newPage()
		no := wordNo >> pageShift
		im.pages[no] = p
		im.lastNo, im.lastPage = no, p
	}
	off := wordNo & (pageWords - 1)
	if p.written[off/64]&(1<<(off%64)) == 0 {
		p.written[off/64] |= 1 << (off % 64)
		im.count++
	}
	p.words[off] = val
}

// Recycle hands the image's pages to the next images written in this
// process and leaves the image empty. It is not for an image in shared
// mode: the sharded machine recycles nothing.
func (im *Image) Recycle() {
	for _, p := range im.pages {
		pagePool.Put(p)
	}
	clear(im.pages)
	im.count = 0
	im.lastNo, im.lastPage = ^uint64(0), nil
}

// Len returns the number of words ever written.
func (im *Image) Len() int {
	im.sync()
	return im.count
}

// Snapshot copies the image (used by the serializability replay checker).
func (im *Image) Snapshot() *Image {
	im.sync()
	c := NewImage()
	c.count = im.count
	for no, p := range im.pages {
		cp := *p
		c.pages[no] = &cp
	}
	return c
}

// Equal reports whether two images hold identical contents (treating absent
// words as zero).
func (im *Image) Equal(other *Image) bool {
	im.sync()
	other.sync()
	for no, p := range im.pages {
		q := other.pages[no]
		for i := range p.words {
			var qv uint64
			if q != nil {
				qv = q.words[i]
			}
			if p.words[i] != qv {
				return false
			}
		}
	}
	for no, q := range other.pages {
		if _, ok := im.pages[no]; ok {
			continue // compared above
		}
		for i := range q.words {
			if q.words[i] != 0 {
				return false
			}
		}
	}
	return true
}

// AddressMap assigns addresses to memory partitions by interleaving LLC
// lines across partitions, as GPUs do.
type AddressMap struct {
	Partitions int
	LineBytes  int
}

// Partition returns the home partition of a byte address.
func (am AddressMap) Partition(addr uint64) int {
	line := addr / uint64(am.LineBytes)
	// Mix the line number so that power-of-two strides spread evenly.
	return int((line ^ (line >> 7) ^ (line >> 15)) % uint64(am.Partitions))
}

// Line returns the address of the LLC line containing addr.
func (am AddressMap) Line(addr uint64) uint64 {
	return addr &^ uint64(am.LineBytes-1)
}
