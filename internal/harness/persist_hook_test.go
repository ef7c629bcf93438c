package harness

// Tests for the Persist hook: the write-behind seam the serving layer uses
// to replace per-simulation Store.Put with coalesced batched commits.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/store"
)

// TestPersistHookReplacesStorePut: with Persist set, a completed simulation
// goes to the hook — and only the hook; the store never sees a direct Put.
func TestPersistHookReplacesStorePut(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(0.1)
	r.Store = store.Open(dir)
	r.StoreReuse = true
	runs := richStub(r)

	var mu sync.Mutex
	persisted := map[string]*stats.Metrics{}
	r.Persist = func(storeKey, desc string, m *stats.Metrics) error {
		mu.Lock()
		defer mu.Unlock()
		persisted[storeKey] = m
		return nil
	}

	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}
	m, err := r.RunE(j)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("%d simulations, want 1", runs.Load())
	}
	mu.Lock()
	hookM, hooked := persisted[r.StoreKey(j)]
	mu.Unlock()
	if !hooked {
		t.Fatal("Persist hook never received the completed result")
	}
	if hookM.TotalCycles != m.TotalCycles {
		t.Fatalf("hook got TotalCycles %d, run returned %d", hookM.TotalCycles, m.TotalCycles)
	}
	if _, ok := r.Store.Get(r.StoreKey(j)); ok {
		t.Fatal("runner wrote the store directly despite the Persist hook")
	}
}

// TestPersistHookUnflushedStillServedFromMemory: a record the hook has not
// flushed yet is still covered by the runner's in-memory tier — repeat runs
// never re-simulate and never consult the (empty) store.
func TestPersistHookUnflushedStillServedFromMemory(t *testing.T) {
	r := NewRunner(0.1)
	r.Store = store.Open(t.TempDir())
	r.StoreReuse = true
	runs := richStub(r)
	r.Persist = func(string, string, *stats.Metrics) error { return nil } // drops everything

	j := Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}
	first, err := r.RunE(j)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.RunE(j)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("repeat run re-simulated (%d runs) despite the in-memory tier", runs.Load())
	}
	if first.TotalCycles != second.TotalCycles {
		t.Fatal("repeat run returned different metrics")
	}
	if r.StoreHits() != 0 {
		t.Fatalf("%d store hits against an empty store", r.StoreHits())
	}
}

// TestPersistHookErrorDoesNotFailRun: persistence is write-behind; a hook
// failure is reported to Verbose, never to the caller.
func TestPersistHookErrorDoesNotFailRun(t *testing.T) {
	r := NewRunner(0.1)
	richStub(r)
	var logged []string
	r.Verbose = func(s string) { logged = append(logged, s) }
	r.Persist = func(string, string, *stats.Metrics) error { return errors.New("disk on fire") }

	if _, err := r.RunE(Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}); err != nil {
		t.Fatalf("hook error surfaced to the caller: %v", err)
	}
	found := false
	for _, l := range logged {
		if len(l) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("hook error vanished without a Verbose line")
	}
}

// TestPersistHookSkipsErrorsAndCanceled: failed or canceled runs never reach
// the hook, exactly as they never reached Store.Put.
func TestPersistHookSkipsErrorsAndCanceled(t *testing.T) {
	r := NewRunner(0.1)
	r.simulate = func(context.Context, Cell) (*stats.Metrics, error) {
		return nil, errors.New("boom")
	}
	calls := 0
	r.Persist = func(string, string, *stats.Metrics) error { calls++; return nil }
	if _, err := r.RunE(Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}); err == nil {
		t.Fatal("stub error vanished")
	}
	if calls != 0 {
		t.Fatalf("Persist called %d times for a failed run", calls)
	}
}
