package harness

import (
	"sync"
	"sync/atomic"
	"testing"

	"getm/internal/gpu"
	"getm/internal/trace"
)

func TestPrecomputeMatchesSequential(t *testing.T) {
	seq := NewRunner(0.03)
	par := NewRunner(0.03)
	if err := Precompute(par, 4); err != nil {
		t.Fatal(err)
	}

	// Every standard-grid job must be cached and identical to a fresh
	// sequential run.
	for _, b := range []string{"ht-h", "atm"} {
		for _, p := range []gpu.Protocol{gpu.ProtoWarpTM, gpu.ProtoGETM} {
			for _, c := range []int{1, 8} {
				j := Job{Proto: p, Bench: b, Conc: c}
				if !par.cached(par.cell(j).ID()) {
					t.Fatalf("job %s not precomputed", j.desc())
				}
				a := seq.Run(j)
				bm := par.Run(j)
				if a.TotalCycles != bm.TotalCycles || a.Commits != bm.Commits || a.Aborts != bm.Aborts {
					t.Fatalf("parallel result differs for %s: (%d,%d,%d) vs (%d,%d,%d)",
						j.desc(), a.TotalCycles, a.Commits, a.Aborts,
						bm.TotalCycles, bm.Commits, bm.Aborts)
				}
			}
		}
	}
}

// Every simulation a Precompute pass runs is a distinct cell. Fig 14's
// default points (4096 metadata entries, 32-byte granules) spell the base
// cell a second time, so the grid's 315 jobs are 297 cells and cost 297
// simulations.
func TestPrecomputeCellIdentity(t *testing.T) {
	r := NewRunner(0.03)
	counts := countingStub(r)
	if err := Precompute(r, 2); err != nil {
		t.Fatal(err)
	}
	cells := 0
	counts.Range(func(id, n any) bool {
		cells++
		if n := n.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("cell %s simulated %d times, want 1", id, n)
		}
		return true
	})
	if got := r.Simulated(); got != 297 || cells != 297 {
		t.Fatalf("Precompute ran %d simulations of %d distinct cells, want 297 of 297", got, cells)
	}
}

func TestPrecomputeIdempotent(t *testing.T) {
	r := NewRunner(0.03)
	if err := Precompute(r, 2); err != nil {
		t.Fatal(err)
	}
	n := r.cacheSize()
	if err := Precompute(r, 2); err != nil {
		t.Fatal(err)
	}
	if r.cacheSize() != n {
		t.Fatalf("second precompute grew the cache: %d -> %d", n, r.cacheSize())
	}
}

// The Progress hook fires once per completed job with a dense 1..total
// sequence per parallel batch (any order of observation within a batch, but
// every value exactly once) — the contract a CLI progress/ETA line depends
// on. Precompute issues two waves, so the ticks arrive as consecutive
// complete batches.
func TestPrecomputeProgress(t *testing.T) {
	r := NewRunner(0.03)
	type tick struct{ done, total int }
	var mu sync.Mutex
	var ticks []tick
	r.Progress = func(done, tot int) {
		mu.Lock()
		ticks = append(ticks, tick{done, tot})
		mu.Unlock()
	}
	if err := Precompute(r, 4); err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("progress never fired")
	}
	// Batches run sequentially, so arrival order is batch 1's ticks (in any
	// order) followed by batch 2's; each segment of `total` ticks must be a
	// permutation of 1..total.
	for i := 0; i < len(ticks); {
		total := ticks[i].total
		if total <= 0 || i+total > len(ticks) {
			t.Fatalf("tick %d: batch total %d does not fit %d remaining ticks", i, total, len(ticks)-i)
		}
		seen := map[int]bool{}
		for _, tk := range ticks[i : i+total] {
			if tk.total != total {
				t.Fatalf("total changed mid-batch: %d -> %d", total, tk.total)
			}
			if tk.done < 1 || tk.done > total || seen[tk.done] {
				t.Fatalf("batch of %d: bad or duplicated done=%d", total, tk.done)
			}
			seen[tk.done] = true
		}
		i += total
	}
}

// A runner with Trace set hands each executed job's recorder to TraceSink,
// and the traced metrics are identical to an untraced run of the same job —
// the PR 3 discipline, preserved through the harness path.
func TestRunnerTraceSink(t *testing.T) {
	plain := NewRunner(0.02)
	traced := NewRunner(0.02)
	traced.Trace = &trace.Options{RingSize: 1 << 10}
	var mu sync.Mutex
	recs := map[string]*trace.Recorder{}
	traced.TraceSink = func(key string, rec *trace.Recorder) {
		mu.Lock()
		recs[key] = rec
		mu.Unlock()
	}

	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 8}
	a, err := traced.RunE(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.RunE(j)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles || a.Commits != b.Commits || a.Aborts != b.Aborts {
		t.Fatalf("traced run diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.TotalCycles, a.Commits, a.Aborts, b.TotalCycles, b.Commits, b.Aborts)
	}
	if len(recs) != 1 {
		t.Fatalf("TraceSink fired %d times, want 1", len(recs))
	}
	for key, rec := range recs {
		if rec == nil {
			t.Fatalf("nil recorder for %s", key)
		}
		if key != traced.StoreKey(j) {
			t.Fatalf("sink key %q, want %q", key, traced.StoreKey(j))
		}
	}

	// The memoized repeat must not re-fire the sink.
	if _, err := traced.RunE(j); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("cached repeat re-fired TraceSink (%d records)", len(recs))
	}
}
