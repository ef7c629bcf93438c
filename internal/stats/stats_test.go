package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumBasics(t *testing.T) {
	var a Accum
	for _, v := range []float64{3, 1, 2} {
		a.Add(v)
	}
	if a.Count != 3 || a.Min != 1 || a.Max != 3 || a.Mean() != 2 {
		t.Fatalf("accum = %+v", a)
	}
}

func TestAccumEmptyMean(t *testing.T) {
	var a Accum
	if a.Mean() != 0 {
		t.Fatal("empty accum mean should be 0")
	}
}

func TestAccumMerge(t *testing.T) {
	var a, b Accum
	a.Add(1)
	a.Add(5)
	b.Add(3)
	a.Merge(b)
	if a.Count != 3 || a.Min != 1 || a.Max != 5 || a.Sum != 9 {
		t.Fatalf("merged = %+v", a)
	}
	var empty Accum
	empty.Merge(a)
	if empty != a {
		t.Fatal("merge into empty should copy")
	}
	before := a
	a.Merge(Accum{})
	if a != before {
		t.Fatal("merging empty should be a no-op")
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestAccumMergeProperty(t *testing.T) {
	prop := func(xs, ys []float64) bool {
		// Restrict to finite, modest magnitudes: accumulated values in this
		// codebase are cycle counts and occupancy, so enormous floats (where
		// summation order changes the result) are out of scope.
		clean := func(vs []float64) []float64 {
			out := vs[:0]
			for _, v := range vs {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out = append(out, math.Mod(v, 1e9))
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Accum
		for _, v := range xs {
			a.Add(v)
			all.Add(v)
		}
		for _, v := range ys {
			b.Add(v)
			all.Add(v)
		}
		a.Merge(b)
		return a.Count == all.Count && a.Min == all.Min && a.Max == all.Max &&
			math.Abs(a.Sum-all.Sum) < 1e-9*(1+math.Abs(all.Sum))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHist(t *testing.T) {
	h := Hist{Buckets: make([]uint64, 4)}
	h.Add(0)
	h.Add(1)
	h.Add(1)
	h.Add(99) // clamped into last bucket
	h.Add(-5) // clamped into first bucket
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 2 || h.Buckets[3] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	want := (0.0*2 + 1*2 + 3*1) / 5
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
}

func TestCounters(t *testing.T) {
	c := Counters{}
	c.Inc("a", 2)
	c.Inc("a", 3)
	d := Counters{"a": 1, "b": 7}
	c.Merge(d)
	if c["a"] != 6 || c["b"] != 7 {
		t.Fatalf("counters = %v", c)
	}
	if s := c.String(); s == "" {
		t.Fatal("String() empty")
	}
}

func TestGMean(t *testing.T) {
	got := GMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("gmean = %v, want 2", got)
	}
	if GMean(nil) != 0 || GMean([]float64{0, -1}) != 0 {
		t.Fatal("gmean of empty/non-positive should be 0")
	}
}

func TestMetricsDerived(t *testing.T) {
	m := NewMetrics()
	m.TxExecCycles, m.TxWaitCycles = 10, 5
	m.Commits, m.Aborts = 2000, 500
	m.XbarUpBytes, m.XbarDownBytes = 100, 50
	if m.TxCycles() != 15 || m.XbarBytes() != 150 {
		t.Fatalf("derived metrics wrong: %+v", m)
	}
	if m.AbortsPer1KCommits() != 250 {
		t.Fatalf("aborts/1k = %v", m.AbortsPer1KCommits())
	}
	// Aborts with zero commits is an infinite rate, not a perfect zero (the
	// old behavior rendered an all-abort cell as flawless).
	m.Commits = 0
	if got := m.AbortsPer1KCommits(); !math.IsInf(got, 1) {
		t.Fatalf("aborts/1k with zero commits and nonzero aborts = %v, want +Inf", got)
	}
}
