package stats

import (
	"math"
	"testing"
)

// A merge containing any truncated input must itself read as truncated, and
// merging only complete inputs must not set the flag.
func TestMergeTruncatedSticky(t *testing.T) {
	complete := NewMetrics()
	complete.Commits = 10
	partial := NewMetrics()
	partial.Commits = 3
	partial.Truncated = true

	m := NewMetrics()
	m.Merge(complete)
	if m.Truncated {
		t.Fatal("merge of complete inputs reads as truncated")
	}
	m.Merge(partial)
	if !m.Truncated {
		t.Fatal("truncated input merged silently into a complete aggregate")
	}
	m.Merge(complete)
	if !m.Truncated {
		t.Fatal("Truncated flag dropped by a later complete merge")
	}
}

// An all-abort cell must report an infinite rate, not a perfect zero; a cell
// with no transactions at all (fglock) stays 0.
func TestAbortsPer1KCommitsNoCommits(t *testing.T) {
	m := NewMetrics()
	m.Aborts = 7
	if got := m.AbortsPer1KCommits(); !math.IsInf(got, 1) {
		t.Fatalf("Commits=0 Aborts=7: got %v, want +Inf", got)
	}
	m.Aborts = 0
	if got := m.AbortsPer1KCommits(); got != 0 {
		t.Fatalf("Commits=0 Aborts=0: got %v, want 0", got)
	}
	m.Commits, m.Aborts = 1000, 5
	if got := m.AbortsPer1KCommits(); got != 5 {
		t.Fatalf("Commits=1000 Aborts=5: got %v, want 5", got)
	}
}
