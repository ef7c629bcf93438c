// Package stats collects simulation measurements: scalar counters,
// min/max/mean accumulators, and small histograms. A Metrics snapshot is the
// unit of exchange between the GPU model and the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Accum accumulates a stream of samples and reports count/sum/min/max/mean.
type Accum struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Add records one sample.
func (a *Accum) Add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Mean returns the average of recorded samples (0 if none).
func (a *Accum) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Merge folds other into a.
func (a *Accum) Merge(other Accum) {
	if other.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = other
		return
	}
	a.Count += other.Count
	a.Sum += other.Sum
	if other.Min < a.Min {
		a.Min = other.Min
	}
	if other.Max > a.Max {
		a.Max = other.Max
	}
}

// Hist is a histogram over small non-negative integer values (e.g. cuckoo
// probe cycles, stall-buffer occupancy). Values beyond the last bucket are
// clamped into it.
type Hist struct {
	Buckets []uint64
}

// DefaultHistBuckets is the bucket count a zero-value Hist grows to on its
// first Add.
const DefaultHistBuckets = 64

// Add records a value. A zero-value Hist allocates DefaultHistBuckets
// buckets on first use (previously this indexed Buckets[-1] and panicked).
func (h *Hist) Add(v int) {
	if len(h.Buckets) == 0 {
		h.Buckets = make([]uint64, DefaultHistBuckets)
	}
	if v < 0 {
		v = 0
	}
	if v >= len(h.Buckets) {
		v = len(h.Buckets) - 1
	}
	h.Buckets[v]++
}

// Merge folds other into h, clamping buckets beyond h's range into its last
// bucket. An empty h adopts other's bucket count.
func (h *Hist) Merge(other Hist) {
	if len(other.Buckets) == 0 {
		return
	}
	if len(h.Buckets) == 0 {
		h.Buckets = make([]uint64, len(other.Buckets))
	}
	last := len(h.Buckets) - 1
	for b, n := range other.Buckets {
		if b > last {
			b = last
		}
		h.Buckets[b] += n
	}
}

// Total returns the number of recorded samples.
func (h *Hist) Total() uint64 {
	var t uint64
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// Mean returns the average recorded value.
func (h *Hist) Mean() float64 {
	var n, sum uint64
	for v, c := range h.Buckets {
		n += c
		sum += uint64(v) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Counters is a named scalar counter set.
type Counters map[string]uint64

// Inc adds delta to the named counter.
func (c Counters) Inc(name string, delta uint64) { c[name] += delta }

// Merge folds other into c.
func (c Counters) Merge(other Counters) {
	for k, v := range other {
		c[k] += v
	}
}

// String renders counters sorted by name, for debugging.
func (c Counters) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-32s %12d\n", k, c[k])
	}
	return b.String()
}

// GMean returns the geometric mean of vs, ignoring non-positive entries.
func GMean(vs []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
