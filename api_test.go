package getm

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	m, err := Run(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalCycles == 0 || m.Commits == 0 {
		t.Fatalf("empty metrics: %+v", m)
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	if _, err := Run(Options{Protocol: "magic"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if _, err := Run(Options{Benchmark: "magic", Scale: 0.05}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// A scale that is not finite and positive is an error matching
// ErrInvalidConfig, not the full-scale (or minimum-size) run it used to fall
// back to. 0 stays the default 1.0.
func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		if m, err := Run(Options{Benchmark: "ht-h", Scale: scale}); !errors.Is(err, ErrInvalidConfig) || m.TotalCycles != 0 {
			t.Errorf("scale %v: ran %d cycles (err %v), want ErrInvalidConfig", scale, m.TotalCycles, err)
		}
	}
}

// ATM at a scale with fewer accounts than its hot set verifies on every
// protocol: the hot set is clamped to the account array.
func TestRunATMBelowHotSetScale(t *testing.T) {
	for _, p := range []string{"getm", "warptm", FGLock} {
		if _, err := Run(Options{Protocol: p, Benchmark: "atm", Scale: 0.0005}); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestRunAllProtocolsViaAPI(t *testing.T) {
	for _, p := range Protocols() {
		m, err := Run(Options{Protocol: p, Benchmark: "ht-h", Scale: 0.05, Concurrency: 4})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if m.TotalCycles == 0 {
			t.Fatalf("%s: no cycles", p)
		}
		if p != FGLock && m.Commits == 0 {
			t.Fatalf("%s: no commits", p)
		}
	}
}

func TestRunDeterministicViaAPI(t *testing.T) {
	o := Options{Policy: GETM(), Benchmark: "atm", Scale: 0.05}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles || a.Aborts != b.Aborts {
		t.Fatal("API runs are not deterministic")
	}
}

func TestMetricsDerivedViaAPI(t *testing.T) {
	m := Metrics{Commits: 1000, Aborts: 250}
	if m.AbortsPer1KCommits() != 250 {
		t.Fatal("aborts/1k wrong")
	}
	if (Metrics{}).AbortsPer1KCommits() != 0 {
		t.Fatal("zero-commit aborts/1k should be 0")
	}
}

func TestExperimentsRegistryViaAPI(t *testing.T) {
	exps := Experiments()
	if len(exps) != 12 {
		t.Fatalf("experiments = %d, want 12", len(exps))
	}
	if _, err := RunExperiment("nope", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentTable5(t *testing.T) {
	out, err := RunExperiment("table5", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total GETM") {
		t.Fatalf("table5 output malformed:\n%s", out)
	}
}

func TestTableVViaAPI(t *testing.T) {
	if !strings.Contains(TableV(), "lower area") {
		t.Fatal("TableV output malformed")
	}
}

func TestGranularityOption(t *testing.T) {
	fine, err := Run(Options{Benchmark: "ht-h", Scale: 0.05, Concurrency: 4, GranularityBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Run(Options{Benchmark: "ht-h", Scale: 0.05, Concurrency: 4, GranularityBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Aborts <= fine.Aborts {
		t.Fatalf("coarser granularity should raise conflicts: fine=%d coarse=%d", fine.Aborts, coarse.Aborts)
	}
}
