package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/store"
)

// A per-call context cancellation is returned to its caller but not recorded
// in Err — a long-lived server timing out requests must not accumulate an
// unbounded error log — and the job stays uncached so a retry re-runs it.
func TestRunECtxPerCallCancelNotRecorded(t *testing.T) {
	r := NewRunner(0.1)
	var runs atomic.Int64
	r.simulate = func(ctx context.Context, _ Cell) (*stats.Metrics, error) {
		runs.Add(1)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("canceled: %w", errors.Join(gpu.ErrCanceled, context.Cause(ctx)))
		case <-time.After(10 * time.Second):
			return stats.NewMetrics(), nil
		}
	}
	c := r.cell(Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCell(ctx, c); !errors.Is(err, gpu.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("per-call cancellation leaked into Err: %v", err)
	}
	if r.cached(c.ID()) {
		t.Fatal("canceled run entered the cache")
	}

	// A retry with a live context genuinely re-runs (and here: succeeds fast).
	r.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		runs.Add(1)
		return stats.NewMetrics(), nil
	}
	if _, err := r.RunCell(context.Background(), c); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("simulate ran %d times, want 2", got)
	}
}

// A caller joining an in-flight simulation stops waiting when its own
// context fires; the shared simulation keeps running and its result still
// lands in the cache for everyone else.
func TestRunECtxJoinerStopsWaiting(t *testing.T) {
	r := NewRunner(0.1)
	release := make(chan struct{})
	entered := make(chan struct{})
	r.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		close(entered)
		<-release
		m := stats.NewMetrics()
		m.TotalCycles = 777
		return m, nil
	}
	c := r.cell(Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4})

	first := make(chan error, 1)
	go func() {
		_, err := r.RunCell(context.Background(), c)
		first <- err
	}()
	<-entered
	if got := inFlight(r); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}

	// Second caller with an expired deadline: must return promptly, not
	// block until the executor finishes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.RunCell(ctx, c)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, gpu.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("joiner err = %v, want ErrCanceled+context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner with dead context blocked on the in-flight run")
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("executor failed: %v", err)
	}
	if m, ok := r.Lookup(c); !ok || m.TotalCycles != 777 {
		t.Fatalf("executor result not cached: %v %v", m, ok)
	}
	if got := inFlight(r); got != 0 {
		t.Fatalf("InFlight = %d after completion, want 0", got)
	}
}

// Lookup probes both tiers without simulating: memory first, then the store,
// promoting disk hits into memory.
func TestLookupNeverSimulates(t *testing.T) {
	dir := t.TempDir()
	seedStore := func() *Runner {
		r := NewRunner(0.1)
		r.Store = store.Open(dir)
		r.StoreReuse = true
		return r
	}

	r1 := seedStore()
	var runs atomic.Int64
	r1.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		runs.Add(1)
		m := stats.NewMetrics()
		m.TotalCycles = 42
		return m, nil
	}
	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 8}
	c := r1.cell(j)
	if _, ok := r1.Lookup(c); ok {
		t.Fatal("Lookup hit on an empty runner")
	}
	if _, err := r1.RunE(j); err != nil {
		t.Fatal(err)
	}
	if m, ok := r1.Lookup(c); !ok || m.TotalCycles != 42 {
		t.Fatalf("memory-tier Lookup = %v %v", m, ok)
	}
	if runs.Load() != 1 {
		t.Fatalf("simulate ran %d times, want 1", runs.Load())
	}

	// A fresh process sharing the directory sees the result via Lookup alone.
	r2 := seedStore()
	r2.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		t.Error("Lookup triggered a simulation")
		return stats.NewMetrics(), nil
	}
	if m, ok := r2.Lookup(c); !ok || m.TotalCycles != 42 {
		t.Fatalf("disk-tier Lookup = %v %v", m, ok)
	}
	if got := r2.StoreHits(); got != 1 {
		t.Fatalf("StoreHits = %d, want 1", got)
	}
	if m, ok := r2.Lookup(c); !ok || m.TotalCycles != 42 {
		t.Fatalf("promoted Lookup = %v %v", m, ok)
	}
	if got := r2.StoreHits(); got != 1 {
		t.Fatalf("StoreHits after promotion = %d, want 1 (memory tier hit)", got)
	}
	if got := r2.Simulated(); got != 0 {
		t.Fatalf("Simulated = %d, want 0", got)
	}
}

// A budgeted run cut short returns partial metrics to its caller but enters
// neither cache tier: the cell has no complete result yet.
func TestTruncatedResultNotCached(t *testing.T) {
	r := NewRunner(0.1)
	r.Store = store.Open(t.TempDir())
	r.StoreReuse = true
	var runs atomic.Int64
	r.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		runs.Add(1)
		m := stats.NewMetrics()
		m.TotalCycles = 1000
		m.Truncated = true
		return m, nil
	}
	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4, CycleBudget: 1000}

	m, err := r.RunE(j)
	if err != nil || m == nil || !m.Truncated {
		t.Fatalf("RunE = %v, %v; want truncated metrics", m, err)
	}
	if r.cached(r.cell(j).ID()) {
		t.Fatal("truncated result entered the memory cache")
	}
	if keys, _ := r.Store.Keys(); len(keys) != 0 {
		t.Fatal("truncated result persisted a record")
	}
	if _, err := r.RunE(j); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("simulate ran %d times, want 2 (no caching of partial results)", got)
	}
	if got := r.Simulated(); got != 2 {
		t.Fatalf("Simulated = %d, want 2", got)
	}
}

// The cycle budget is part of the in-memory identity (a budgeted and an
// unbudgeted request are different asks) but not of the on-disk one: a
// stored complete result satisfies a budgeted request at disk-read cost.
func TestBudgetedJobKeying(t *testing.T) {
	full := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4}
	budgeted := full
	budgeted.CycleBudget = 5000
	r := NewRunner(0.1)
	if r.cell(full).ID() == r.cell(budgeted).ID() {
		t.Fatal("budget not part of the in-memory key")
	}
	if r.StoreKey(full) != r.StoreKey(budgeted) {
		t.Fatal("budget leaked into the store key: a complete record would not satisfy a budgeted request")
	}
	if cfg := budgeted.Config(); uint64(cfg.CycleBudget) != 5000 {
		t.Fatalf("config.CycleBudget = %d, want 5000", cfg.CycleBudget)
	}
}
