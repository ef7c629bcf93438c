// Package mem models the GPU memory system: the global memory image (actual
// data values, so WarpTM's value-based validation compares real contents),
// the line-interleaved partition address map, a set-associative LLC tag
// array, and a DRAM timing model with per-bank occupancy.
package mem

import (
	"math/bits"

	"getm/internal/sim"
)

// WordBytes is the data word size; all workload values are 64-bit words.
const WordBytes = 8

// Image page geometry: 4 KB pages (512 words) in a page table, flat word
// arrays inside — steady-state reads and writes are a hit in the one-entry
// page cache or one page-table probe, plus array indexing.
const (
	pageWords = 512
	pageShift = 9 // log2(pageWords)
	// addrPageShift turns a byte address into its page number.
	addrPageShift = pageShift + 3 // log2(WordBytes)
)

type page struct {
	words [pageWords]uint64
	// written marks words ever written (Len/Snapshot track the footprint,
	// not just non-zero contents).
	written [pageWords / 64]uint64
}

// heldPages holds the pages of recycled images (Image.Recycle) for the next
// image that writes a new page, on any goroutine.
var heldPages sim.Holder[*page]

// newPage returns a zeroed page, recycled when one is held.
func newPage() *page {
	if p := heldPages.Get(); p != nil {
		*p = page{}
		return p
	}
	return new(page)
}

// Image holds the architectural memory contents at word granularity.
// It is shared by all partitions (each partition owns a disjoint address
// slice, so no two partitions touch the same word). An image belongs to one
// goroutine.
//
// Pages are found by page number in a sim.Table, one code path for every
// address of the 64-bit space, behind a one-entry cache.
type Image struct {
	pages sim.Table[*page]
	count int // words ever written
	// One-entry page cache: consecutive accesses cluster heavily by page.
	// It is either empty (lastNo ^0, which no address's page number
	// reaches) or holds a page the table holds, so a hit needs no nil check.
	lastNo   uint64
	lastPage *page
}

// NewImage returns an empty (all-zero) memory image.
func NewImage() *Image { return &Image{lastNo: ^uint64(0)} }

// pageFor returns the page holding wordNo, or nil: the cached page, or else
// a probe of the table.
func (im *Image) pageFor(wordNo uint64) *page {
	if no := wordNo >> pageShift; no != im.lastNo {
		return im.findPage(no)
	}
	return im.lastPage
}

// findPage looks page number no up in the page table and caches a hit.
func (im *Image) findPage(no uint64) *page {
	pp := im.pages.Find(no)
	if pp == nil {
		return nil
	}
	im.lastNo, im.lastPage = no, *pp
	return *pp
}

// Read returns the word at the (word-aligned) byte address. A hit in the
// page cache is small enough to inline into the callers; a miss takes
// readMiss.
func (im *Image) Read(addr uint64) uint64 {
	if addr>>addrPageShift != im.lastNo {
		return im.readMiss(addr)
	}
	return im.lastPage.words[addr/WordBytes&(pageWords-1)]
}

// readMiss is Read past a page-cache miss: a probe of the page table. It is
// kept out of line so Read stays inlinable.
//
//go:noinline
func (im *Image) readMiss(addr uint64) uint64 {
	wordNo := addr / WordBytes
	p := im.findPage(wordNo >> pageShift)
	if p == nil {
		return 0
	}
	return p.words[wordNo&(pageWords-1)]
}

// Write stores val at the (word-aligned) byte address.
func (im *Image) Write(addr, val uint64) {
	wordNo := addr / WordBytes
	p := im.pageFor(wordNo)
	if p == nil {
		p = newPage()
		no := wordNo >> pageShift
		*im.pages.Ensure(no) = p
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
// process and leaves the image empty.
func (im *Image) Recycle() {
	im.pages.Range(func(_ uint64, p **page) bool {
		heldPages.Put(*p)
		return true
	})
	im.pages = sim.Table[*page]{}
	im.count = 0
	im.lastNo, im.lastPage = ^uint64(0), nil
}

// Len returns the number of words ever written.
func (im *Image) Len() int { return im.count }

// Snapshot copies the image (used by the serializability replay checker).
func (im *Image) Snapshot() *Image {
	c := NewImage()
	c.count = im.count
	im.pages.Range(func(no uint64, p **page) bool {
		cp := **p
		*c.pages.Ensure(no) = &cp
		return true
	})
	return c
}

// Equal reports whether two images hold identical contents (treating absent
// words as zero).
func (im *Image) Equal(other *Image) bool {
	return im.covers(other) && other.covers(im)
}

// covers reports whether every word of im's pages reads the same in other,
// where a page other lacks reads as zeros.
func (im *Image) covers(other *Image) bool {
	eq := true
	im.pages.Range(func(no uint64, p **page) bool {
		var q *page
		if qp := other.pages.Find(no); qp != nil {
			q = *qp
		}
		for i, v := range (*p).words {
			var qv uint64
			if q != nil {
				qv = q.words[i]
			}
			if v != qv {
				eq = false
				return false
			}
		}
		return true
	})
	return eq
}

// AddressMap assigns addresses to memory partitions by interleaving LLC
// lines across partitions, as GPUs do. LineBytes must be a power of two, as
// the LLC's (NewLLC) is: Partition shifts by it and Line masks with it.
type AddressMap struct {
	Partitions int
	LineBytes  int
}

// Partition returns the home partition of a byte address.
func (am AddressMap) Partition(addr uint64) int {
	line := addr >> bits.TrailingZeros64(uint64(am.LineBytes))
	// Mix the line number so that power-of-two strides spread evenly.
	return int((line ^ (line >> 7) ^ (line >> 15)) % uint64(am.Partitions))
}

// Line returns the address of the LLC line containing addr.
func (am AddressMap) Line(addr uint64) uint64 {
	return addr &^ uint64(am.LineBytes-1)
}
