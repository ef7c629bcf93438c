package harness

// Concurrency tests for the thread-safe runner. These are the regression
// suite for the data races the original runner had (unsynchronized cache and
// optC access, duplicate in-batch jobs, worker panics) and are meant to run
// under -race — `make check` enforces that.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"getm/internal/gpu"
	"getm/internal/stats"
)

// countingStub installs a fake simulator that counts executions per cell ID
// and returns distinguishable metrics without running the GPU model.
func countingStub(r *Runner) *sync.Map {
	var counts sync.Map
	r.simulate = func(_ context.Context, c Cell) (*stats.Metrics, error) {
		n, _ := counts.LoadOrStore(c.ID(), new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return &stats.Metrics{TotalCycles: uint64(100 + c.Config.Core.MaxTxWarps)}, nil
	}
	return &counts
}

// cellsOf expands jobs at the runner's scale, seed and policy pin.
func cellsOf(r *Runner, jobs []Job) []Cell {
	cells := make([]Cell, len(jobs))
	for i, j := range jobs {
		cells[i] = r.cell(j)
	}
	return cells
}

// inFlight returns the number of simulations executing (or being loaded
// from the store) right now — the singleflight map's size.
func inFlight(r *Runner) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}

// TestRunConcurrentHammer calls Run, RunE, RunOptimal, and OptimalConc from
// many goroutines over an overlapping job set; under -race this flushes out
// any unsynchronized access to the runner's maps, and the counting stub
// proves each unique key simulated exactly once despite the contention.
func TestRunConcurrentHammer(t *testing.T) {
	r := NewRunner(0.03)
	counts := countingStub(r)

	const goroutines = 16 // acceptance floor is 8; hammer harder
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				b := Benchmarks()[(g+i)%len(Benchmarks())]
				switch i % 4 {
				case 0:
					r.Run(Job{Proto: gpu.ProtoGETM, Bench: b, Conc: ConcLevels[i%len(ConcLevels)]})
				case 1:
					if _, err := r.RunE(Job{Proto: gpu.ProtoWarpTM, Bench: b, Conc: 8}); err != nil {
						t.Error(err)
					}
				case 2:
					r.OptimalConc(gpu.ProtoGETM, b)
				case 3:
					r.RunOptimal(gpu.ProtoWarpTM, b)
				}
			}
		}()
	}
	wg.Wait()

	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	counts.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("job %v simulated %d times, want exactly 1", k, n)
		}
		return true
	})
}

// TestRunParallelDedupesBatch feeds RunCells a batch full of duplicates —
// including override values equal to the defaults (the paper machine's
// 4096 metadata entries, 32-byte granules and 15 cores), which spell the
// same cell as the plain job — and checks exactly-once execution.
func TestRunParallelDedupesBatch(t *testing.T) {
	r := NewRunner(0.03)
	counts := countingStub(r)

	base := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4}
	cells := cellsOf(r, []Job{base, base, base,
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4, MetaEntries: 0, Granularity: 0},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4, MetaEntries: 4096},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4, Granularity: 32},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4, Cores: 15},
		{Proto: gpu.ProtoWarpTM, Bench: "atm", Conc: 2},
		{Proto: gpu.ProtoWarpTM, Bench: "atm", Conc: 2},
	})
	if err := r.RunCells(cells, 4); err != nil {
		t.Fatal(err)
	}
	total := 0
	counts.Range(func(k, v any) bool {
		n := int(v.(*atomic.Int64).Load())
		if n != 1 {
			t.Errorf("job %v simulated %d times, want exactly 1", k, n)
		}
		total += n
		return true
	})
	if total != 2 {
		t.Fatalf("batch executed %d unique jobs, want 2", total)
	}

	// A second batch over the same cells must be a pure cache hit.
	if err := r.RunCells(cells, 4); err != nil {
		t.Fatal(err)
	}
	counts.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("job %v re-simulated after caching (%d runs)", k, n)
		}
		return true
	})
}

// TestRunSurfacesErrors verifies that a failing simulation no longer kills
// the process: RunE returns the error, Run degrades to zero metrics, the
// error is aggregated on the runner, healthy jobs in the same parallel batch
// still complete, and the deterministic failure is cached rather than
// re-executed.
func TestRunSurfacesErrors(t *testing.T) {
	r := NewRunner(0.03)
	boom := errors.New("boom")
	var failRuns atomic.Int64
	r.simulate = func(_ context.Context, c Cell) (*stats.Metrics, error) {
		if c.Bench == "atm" {
			failRuns.Add(1)
			return nil, boom
		}
		return &stats.Metrics{TotalCycles: 1}, nil
	}

	bad := Job{Proto: gpu.ProtoGETM, Bench: "atm", Conc: 4}
	good := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4}

	if err := r.RunCells(cellsOf(r, []Job{bad, good}), 2); !errors.Is(err, boom) {
		t.Fatalf("RunCells error = %v, want wrapped boom", err)
	}
	if !r.cached(r.cell(good).ID()) {
		t.Fatal("healthy job did not complete alongside the failing one")
	}

	if _, err := r.RunE(bad); !errors.Is(err, boom) {
		t.Fatalf("RunE error = %v, want wrapped boom", err)
	} else if !strings.Contains(err.Error(), bad.desc()) {
		t.Fatalf("error %q does not identify the failing job", err)
	}
	if m := r.Run(bad); m == nil || m.TotalCycles != 0 {
		t.Fatalf("Run on failing job = %+v, want zero metrics", m)
	}
	if err := r.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want aggregate containing boom", err)
	}
	if n := failRuns.Load(); n != 1 {
		t.Fatalf("failing job executed %d times, want 1 (errors are cached)", n)
	}
}

// TestInflightSharing checks the singleflight path directly: two goroutines
// requesting the same slow job must receive the identical *Metrics pointer
// from one execution.
func TestInflightSharing(t *testing.T) {
	r := NewRunner(0.03)
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	r.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		runs.Add(1)
		close(started)
		<-release
		return &stats.Metrics{TotalCycles: 7}, nil
	}

	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 2}
	results := make(chan *stats.Metrics, 2)
	go func() { results <- r.Run(j) }()
	<-started // first caller is mid-simulation
	go func() { results <- r.Run(j) }()
	close(release)
	a, b := <-results, <-results
	if a != b {
		t.Fatal("concurrent callers got different metrics objects")
	}
	if runs.Load() != 1 {
		t.Fatalf("slow job ran %d times, want 1", runs.Load())
	}
	if fmt.Sprint(a.TotalCycles) != "7" {
		t.Fatalf("unexpected metrics: %+v", a)
	}
}
