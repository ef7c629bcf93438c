package getm_test

// Tests for the v2 surface: typed errors, context-aware runs, and the
// durable experiment store.

import (
	"context"
	"errors"
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
