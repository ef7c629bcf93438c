package tmtest_test

import (
	"fmt"
	"strings"
	"testing"

	"getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/stats"
	"getm/internal/tmtest"
	"getm/internal/workloads"
)

// The accounting invariants must hold for every accepted policy point — the
// four presets and every other valid matrix point — on contended and
// uncontended workloads alike: aborts partition exactly by cause, and lane
// attempts partition exactly into commits and aborts.
func TestAccountingInvariants(t *testing.T) {
	benches := []string{"ht-h", "atm"}
	for _, pol := range policy.Valid() {
		proto := gpu.ProtocolOf(pol)
		for _, bench := range benches {
			t.Run(fmt.Sprintf("%s/%s", proto, bench), func(t *testing.T) {
				k, err := workloads.Build(bench, workloads.TM, workloads.Params{Scale: 0.05, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				res, err := gpu.Run(gpu.DefaultConfig(proto), k)
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics.Commits == 0 {
					t.Fatalf("no commits — workload not exercising transactions")
				}
				if err := tmtest.CheckAccounting(res.Metrics); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// fglock runs carry no transactions; the invariant degenerates to 0 == 0.
func TestAccountingInvariantsFGLock(t *testing.T) {
	k, err := workloads.Build("atm", workloads.FGLock, workloads.Params{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Run(gpu.DefaultConfig(gpu.ProtoFGLock), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmtest.CheckAccounting(res.Metrics); err != nil {
		t.Error(err)
	}
}

// Truncated metrics must be refused outright: a run cut short mid-flight has
// lanes inside attempts, so the invariants would fail spuriously.
func TestCheckAccountingRefusesTruncated(t *testing.T) {
	m := stats.NewMetrics()
	m.Truncated = true
	err := tmtest.CheckAccounting(m)
	if err == nil {
		t.Fatal("CheckAccounting accepted truncated metrics")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not explain the refusal: %v", err)
	}
	// The same tallies untruncated pass (all-zero is a valid fglock run).
	m.Truncated = false
	if err := tmtest.CheckAccounting(m); err != nil {
		t.Fatalf("complete all-zero metrics refused: %v", err)
	}
}
