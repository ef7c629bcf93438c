// sync.Pool drops puts at random under the race detector, so this gate
// builds only without it.

//go:build !race

package gpu_test

import (
	"runtime/debug"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/workloads"
)

// warmRunMaxAllocs bounds the objects a warm run may allocate. What is left
// is per-run bookkeeping (the machine's component structs, the Result and
// its metrics maps), not anything that grows with the simulated work.
const warmRunMaxAllocs = 1000

// A run that follows a run of the same cell allocates almost nothing: free
// lists, warps and the event engine's slab outlive their machine (DESIGN
// §6), and the fglock lock path and EAPG's broadcasts allocate no closure
// per event. Every policy point and fglock, on ht-h, atm and cc at scale
// 0.1 and conc 8. GC is off so the stocks keep what they are given.
func TestWarmRunAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	params := workloads.DefaultParams()
	params.Scale = 0.1
	for _, bench := range []string{"ht-h", "atm", "cc"} {
		for _, proto := range protos {
			variant := workloads.TM
			if proto == ProtoFGLock {
				variant = workloads.FGLock
			}
			k, err := workloads.Build(bench, variant, params)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(proto)
			cfg.Core.MaxTxWarps = 8
			// AllocsPerRun makes one warm-up run before the one it counts.
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := Run(cfg, k); err != nil {
					t.Fatalf("%s on %s: %v", proto, bench, err)
				}
			})
			if allocs >= warmRunMaxAllocs {
				t.Errorf("%s on %s: warm run allocated %.0f objects, want fewer than %d",
					proto, bench, allocs, warmRunMaxAllocs)
			}
			t.Logf("%s on %s: %.0f objects", proto, bench, allocs)
		}
	}
}
