package harness

// Tests for the runner's durable second tier: store round-trips through real
// report rendering, corrupt records silently recomputing, and the headline
// resume guarantee — a killed-then-resumed run simulates only the missing
// cells and produces byte-identical reports.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync/atomic"
	"testing"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/store"
)

// richStub installs a deterministic fake simulator whose metrics exercise
// every field shape reports consume — scalars, causes, histograms, float
// accumulators — derived purely from the cell so two runners always agree.
func richStub(r *Runner) *atomic.Int64 {
	var runs atomic.Int64
	r.simulate = func(_ context.Context, c Cell) (*stats.Metrics, error) {
		runs.Add(1)
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%g|%d", c.Desc, c.Scale, c.Seed)
		v := h.Sum64()
		m := stats.NewMetrics()
		m.TotalCycles = 1000 + v%100000
		m.TxExecCycles = v % 5000
		m.TxWaitCycles = v % 3000
		m.Commits = 100 + v%900
		m.Aborts = v % 100
		m.AbortsByCause.Inc("war", m.Aborts/2)
		m.AbortsByCause.Inc("waw-raw", m.Aborts-m.Aborts/2)
		m.XbarUpBytes = 1 + v%(1<<20)
		m.XbarDownBytes = 1 + (v>>7)%(1<<20)
		m.MetaAccessCycles.Add(int(v % 7))
		m.MetaAccessCycles.Add(int(v % 13))
		m.StallBufMaxOccupancy = v % 12
		m.StallBufPerAddr.Add(float64(v%97) / 7) // non-terminating binary fraction
		m.Extra.Inc("llc-hits", v%4096)
		return m, nil
	}
	return &runs
}

func storeRunner(t *testing.T, dir string, scale float64, reuse bool) (*Runner, *atomic.Int64) {
	t.Helper()
	r := NewRunner(scale)
	r.Store = store.Open(dir)
	if err := r.Store.Degraded(); err != nil {
		t.Fatal(err)
	}
	r.StoreReuse = reuse
	runs := richStub(r)
	return r, runs
}

// A second process over a warm store must simulate nothing; with reuse
// disabled it must trust nothing.
func TestRunnerStoreTier(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 8},
		{Proto: gpu.ProtoWarpTM, Bench: "atm", Conc: 2},
	}

	r1, _ := storeRunner(t, dir, 0.1, true)
	for _, j := range jobs {
		if _, err := r1.RunE(j); err != nil {
			t.Fatal(err)
		}
	}
	if r1.Simulated() != len(jobs) || r1.StoreHits() != 0 {
		t.Fatalf("cold run: simulated %d / store hits %d, want %d / 0",
			r1.Simulated(), r1.StoreHits(), len(jobs))
	}

	r2, _ := storeRunner(t, dir, 0.1, true)
	var fresh, warm []*stats.Metrics
	for _, j := range jobs {
		m1, _ := r1.RunE(j) // memory hit
		m2, err := r2.RunE(j)
		if err != nil {
			t.Fatal(err)
		}
		fresh, warm = append(fresh, m1), append(warm, m2)
	}
	if r2.Simulated() != 0 || r2.StoreHits() != len(jobs) {
		t.Fatalf("warm run: simulated %d / store hits %d, want 0 / %d",
			r2.Simulated(), r2.StoreHits(), len(jobs))
	}
	for i := range fresh {
		if fresh[i].TotalCycles != warm[i].TotalCycles || fresh[i].XbarBytes() != warm[i].XbarBytes() {
			t.Fatalf("job %d: store round trip changed metrics", i)
		}
	}

	// Same store, reuse disabled: everything re-simulates.
	r3, _ := storeRunner(t, dir, 0.1, false)
	for _, j := range jobs {
		if _, err := r3.RunE(j); err != nil {
			t.Fatal(err)
		}
	}
	if r3.Simulated() != len(jobs) || r3.StoreHits() != 0 {
		t.Fatalf("no-reuse run: simulated %d / store hits %d, want %d / 0",
			r3.Simulated(), r3.StoreHits(), len(jobs))
	}

	// Different scale must never hit the other scale's records.
	r4, _ := storeRunner(t, dir, 0.2, true)
	if _, err := r4.RunE(jobs[0]); err != nil {
		t.Fatal(err)
	}
	if r4.StoreHits() != 0 {
		t.Fatal("a different scale was served another scale's record")
	}
}

// A record corrupted on disk must be silently recomputed and repaired.
func TestRunnerStoreCorruptRecomputed(t *testing.T) {
	dir := t.TempDir()
	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4}

	r1, _ := storeRunner(t, dir, 0.1, true)
	want, err := r1.RunE(j)
	if err != nil {
		t.Fatal(err)
	}

	path := r1.Store.Dir() + "/" + r1.StoreKey(j) + ".json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, _ := storeRunner(t, dir, 0.1, true)
	got, err := r2.RunE(j)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Simulated() != 1 || r2.StoreHits() != 0 {
		t.Fatalf("corrupt record: simulated %d / hits %d, want 1 / 0 (recompute)",
			r2.Simulated(), r2.StoreHits())
	}
	if got.TotalCycles != want.TotalCycles {
		t.Fatal("recomputed metrics differ from the original run")
	}

	// The recompute repaired the record: a third process hits it.
	r3, _ := storeRunner(t, dir, 0.1, true)
	if _, err := r3.RunE(j); err != nil {
		t.Fatal(err)
	}
	if r3.StoreHits() != 1 {
		t.Fatal("recomputed record was not persisted back")
	}
}

// The headline resume guarantee: kill a grid run mid-way, resume against the
// same store, and (a) only the missing cells simulate, (b) the rendered
// report is byte-identical to an uninterrupted run's.
func TestResumeByteIdentical(t *testing.T) {
	render := func(r *Runner) string {
		out := ""
		for _, id := range []string{"fig12", "fig13", "fig16"} {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			out += e.Run(r).String()
		}
		return out
	}

	// Reference: uninterrupted, storeless run.
	rFull := NewRunner(0.1)
	fullRuns := richStub(rFull)
	want := render(rFull)
	total := int(fullRuns.Load())
	if total == 0 {
		t.Fatal("reference run simulated nothing")
	}

	// "Killed" run: persist only a strict subset of the grid.
	dir := t.TempDir()
	rPart, _ := storeRunner(t, dir, 0.1, true)
	prefill := []Job{}
	for _, b := range Benchmarks() {
		prefill = append(prefill,
			Job{Proto: gpu.ProtoGETM, Bench: b, Conc: 1},
			Job{Proto: gpu.ProtoGETM, Bench: b, Conc: 2},
			Job{Proto: gpu.ProtoWarpTM, Bench: b, Conc: 1})
	}
	for _, j := range prefill {
		if _, err := rPart.RunE(j); err != nil {
			t.Fatal(err)
		}
	}
	done := rPart.Simulated()
	if done >= total {
		t.Fatalf("prefill (%d) must be a strict subset of the grid (%d)", done, total)
	}

	// Resumed process: fresh memory, same store.
	rResume, _ := storeRunner(t, dir, 0.1, true)
	got := render(rResume)
	if got != want {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if rResume.Simulated() != total-done {
		t.Fatalf("resumed run simulated %d cells, want exactly the %d missing (grid %d, done %d)",
			rResume.Simulated(), total-done, total, done)
	}
	if rResume.StoreHits() != done {
		t.Fatalf("resumed run hit %d stored cells, want %d", rResume.StoreHits(), done)
	}
}

// Cancellation must propagate out of RunE without poisoning either cache
// tier: a retry actually re-runs the job.
func TestRunnerCanceledNotCached(t *testing.T) {
	r := NewRunner(0.1)
	r.Store = store.Open(t.TempDir())
	r.StoreReuse = true
	var runs atomic.Int64
	fail := true
	r.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		runs.Add(1)
		if fail {
			return nil, fmt.Errorf("kernel canceled at cycle 42: %w", gpu.ErrCanceled)
		}
		return stats.NewMetrics(), nil
	}

	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4}
	if _, err := r.RunE(j); !errors.Is(err, gpu.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if err := r.Err(); !errors.Is(err, gpu.ErrCanceled) {
		t.Fatalf("Err() = %v, want to surface the cancellation", err)
	}
	if r.cached(r.cell(j).ID()) {
		t.Fatal("canceled run entered a cache tier")
	}
	if keys, _ := r.Store.Keys(); len(keys) != 0 {
		t.Fatal("canceled run persisted a record")
	}

	// With the cancellation gone, the same key must genuinely re-run.
	fail = false
	if _, err := r.RunE(j); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("job ran %d times, want 2 (cancel must not cache)", runs.Load())
	}
}

// A degraded (unwritable) store must not break the runner: everything
// simulates and nothing is persisted.
func TestRunnerStoreDegraded(t *testing.T) {
	file := t.TempDir() + "/plain-file"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0.1)
	r.Store = store.Open(file + "/sub")
	r.StoreReuse = true
	runs := richStub(r)

	if _, err := r.RunE(Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 4}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || r.StoreHits() != 0 {
		t.Fatalf("degraded store: runs %d, hits %d, want 1, 0", runs.Load(), r.StoreHits())
	}
}
