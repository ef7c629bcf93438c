package gpu_test

import (
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/sim"
)

// A run cut short by its cycle budget stops with events pending, requests in
// flight, warps mid-transaction or mid-critical-section and locks held. What
// it hands on (its reset engine, its warps and free lists) must not carry
// any of that into the next run: after it, the cell runs exactly as on
// fresh machinery (runFresh).
func TestCutShortRunLeavesNothingBehind(t *testing.T) {
	if arm, ok := freshArm(); ok {
		cfg := recycledConfig(Protocol(arm))
		reportFresh(t, metricsJSON(t, cfg, smallKernel(t, cfg.Protocol, "ht-h")))
		return
	}
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	for _, proto := range protos {
		k := smallKernel(t, proto, "ht-h")
		cfg := recycledConfig(proto)
		fresh := runFresh(t, string(proto))
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
