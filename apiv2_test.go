package getm_test

// Tests for the v2 surface: typed errors, context-aware runs, and the
// durable experiment store.

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"getm"
)

func TestTypedErrors(t *testing.T) {
	if _, err := getm.Run(getm.Options{Protocol: "htm3000"}); !errors.Is(err, getm.ErrUnknownProtocol) {
		t.Fatalf("bad protocol: err = %v, want ErrUnknownProtocol", err)
	}
	if _, err := getm.Run(getm.Options{Benchmark: "nope"}); !errors.Is(err, getm.ErrUnknownBenchmark) {
		t.Fatalf("bad benchmark: err = %v, want ErrUnknownBenchmark", err)
	}
	if _, err := getm.RunExperimentContext(context.Background(), "fig99"); !errors.Is(err, getm.ErrUnknownExperiment) {
		t.Fatalf("bad experiment: err = %v, want ErrUnknownExperiment", err)
	}
	// The unknown-experiment message should name valid ids to help the caller.
	_, err := getm.RunExperimentContext(context.Background(), "fig99")
	if !strings.Contains(err.Error(), "fig3") {
		t.Fatalf("unknown-experiment error should list valid ids, got %q", err)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := getm.RunContext(ctx, getm.Options{Benchmark: "ht-h", Scale: 0.05})
	if !errors.Is(err, getm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to also match context.Canceled", err)
	}
}

// A run canceled mid-flight returns the partial metrics it accumulated,
// tagged Truncated, alongside an error matching ErrCanceled.
func TestRunContextCanceledMidRun(t *testing.T) {
	ctx := &pollCountCtx{Context: context.Background(), cancelN: 2}
	m, err := getm.RunContext(ctx, getm.Options{Benchmark: "ap"})
	if !errors.Is(err, getm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !m.Truncated || m.TotalCycles == 0 {
		t.Fatalf("metrics %+v, want partial metrics tagged Truncated", m)
	}
	full, err := getm.Run(getm.Options{Benchmark: "ap"})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalCycles >= full.TotalCycles {
		t.Fatalf("canceled run reached cycle %d of %d", m.TotalCycles, full.TotalCycles)
	}
}

// pollCountCtx is a deterministic cancellable context: Err reports
// DeadlineExceeded from its n-th poll onward. A run polls Err once before it
// starts and then at every chunk boundary, so cancelN 2 stops it one chunk
// of cycles in — never while its kernel is still being built, however slow
// the host. Done returns a non-nil (never-closed) channel so the run treats
// it as cancellable.
type pollCountCtx struct {
	context.Context
	polls   int
	cancelN int
}

func (c *pollCountCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelN {
		return context.DeadlineExceeded
	}
	return nil
}

func TestRunContextMatchesRun(t *testing.T) {
	o := getm.Options{Policy: getm.GETM(), Benchmark: "atm", Concurrency: 4, Scale: 0.05}
	m1, err1 := getm.Run(o)
	m2, err2 := getm.RunContext(context.Background(), o)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("Run and RunContext disagree:\n%+v\n%+v", m1, m2)
	}
	if m1.Truncated {
		t.Fatal("uncancelled run reported Truncated")
	}
}

func TestExperimentsTyped(t *testing.T) {
	exps := getm.Experiments()
	if len(exps) != 12 {
		t.Fatalf("got %d experiments, want 12", len(exps))
	}
	var first getm.Experiment = exps[0]
	if first.ID != "fig3" || first.Title == "" {
		t.Fatalf("unexpected first experiment: %+v", first)
	}
}

func TestRunExperimentContextStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	out1, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05), getm.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("store dir is empty after a stored experiment run")
	}

	// A second process over the warm store renders the identical report.
	out2, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05), getm.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("stored experiment re-run is not byte-identical")
	}

	// And matches a storeless run.
	out3, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05), getm.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out3 {
		t.Fatal("stored experiment differs from a storeless run")
	}
}

func TestRunExperimentContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05))
	if !errors.Is(err, getm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// WithShards is deprecated with the sharded engine: a positive n is an
// error, never a silent serial run, and n <= 0 changes nothing.
func TestWithShardsRejected(t *testing.T) {
	ctx := context.Background()
	if _, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05), getm.WithShards(2)); err == nil {
		t.Fatal("WithShards(2) ran; want an error")
	}
	got, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05), getm.WithShards(0))
	if err != nil {
		t.Fatalf("WithShards(0): %v", err)
	}
	want, err := getm.RunExperimentContext(ctx, "fig3", getm.WithScale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("WithShards(0) changed the report")
	}
}

// Every machine option outside its documented range is an error matching
// ErrInvalidConfig, returned before anything simulates; none falls back to
// the default machine (TestRunRejectsBadScale covers Scale).
func TestRunInvalidConfig(t *testing.T) {
	base := getm.Options{Benchmark: "ht-h", Scale: 0.05}
	for name, set := range map[string]func(*getm.Options){
		"concurrency -1":      func(o *getm.Options) { o.Concurrency = -1 },
		"concurrency 49":      func(o *getm.Options) { o.Concurrency = 49 },
		"cores -1":            func(o *getm.Options) { o.Cores = -1 },
		"cores 57":            func(o *getm.Options) { o.Cores = 57 },
		"granularity -8":      func(o *getm.Options) { o.GranularityBytes = -8 },
		"granularity 3":       func(o *getm.Options) { o.GranularityBytes = 3 },
		"granularity 8192":    func(o *getm.Options) { o.GranularityBytes = 8192 },
		"metadata entries -1": func(o *getm.Options) { o.MetadataEntries = -1 },
		"metadata entries 1":  func(o *getm.Options) { o.MetadataEntries = 1 },
		"metadata entries 3":  func(o *getm.Options) { o.MetadataEntries = 3 },
	} {
		o := base
		set(&o)
		m, err := getm.Run(o)
		if !errors.Is(err, getm.ErrInvalidConfig) || m.TotalCycles != 0 {
			t.Errorf("%s: ran %d cycles, err = %v; want ErrInvalidConfig", name, m.TotalCycles, err)
		}
	}
}

// A scale that is not finite and positive is an error matching
// ErrInvalidConfig, not a full-scale experiment; 0 stays the default 1.0.
func TestRunExperimentInvalidScale(t *testing.T) {
	for _, s := range []float64{-1, math.NaN(), math.Inf(1)} {
		out, err := getm.RunExperimentContext(context.Background(), "fig3", getm.WithScale(s))
		if !errors.Is(err, getm.ErrInvalidConfig) || out != "" {
			t.Errorf("WithScale(%v): err = %v, %d bytes of report; want ErrInvalidConfig", s, err, len(out))
		}
	}
	if _, err := getm.RunExperiment("fig3", -1); !errors.Is(err, getm.ErrInvalidConfig) {
		t.Errorf("RunExperiment at scale -1: err = %v, want ErrInvalidConfig", err)
	}
}
