package gpu_test

import (
	"runtime/debug"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/sim"
	"getm/internal/workloads"
)

// A run cut short by its cycle budget stops with events pending, requests in
// flight, warps mid-transaction or mid-critical-section and locks held. What
// it hands on (its reset engine, its warps and free lists) must not carry
// any of that into the next run: after it, the cell runs exactly as on
// fresh machinery. GC is off so the stocks hand back what they are given.
func TestCutShortRunLeavesNothingBehind(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	for _, proto := range protos {
		variant := workloads.TM
		if proto == ProtoFGLock {
			variant = workloads.FGLock
		}
		k, err := workloads.Build("ht-h", variant, smallParams())
		if err != nil {
			t.Fatal(err)
		}
		cfg := recycledConfig(proto)
		emptyPools()
		fresh := metricsJSON(t, cfg, k)
		full, err := Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []uint64{7, 3} {
			cut := cfg
			cut.CycleBudget = sim.Cycle(full.Metrics.TotalCycles / budget)
			if res, err := Run(cut, k); err != nil || !res.Truncated {
				t.Fatalf("%s: budgeted run: truncated %v, err %v", proto, res != nil && res.Truncated, err)
			}
			if again := metricsJSON(t, cfg, k); again != fresh {
				t.Errorf("%s: run after one cut at 1/%d differs from fresh\nfresh: %s\nafter: %s",
					proto, budget, fresh, again)
			}
		}
	}
}
