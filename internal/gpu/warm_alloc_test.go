package gpu_test

import (
	"runtime"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/workloads"
)

// warmRunMaxAllocs bounds the objects a warm run may allocate. What is left
// is per-run bookkeeping (the machine's component structs, the Result and
// its metrics maps), not anything that grows with the simulated work.
const warmRunMaxAllocs = 1000

// A run that follows a run of the same cell allocates almost nothing, however
// often the collector has run in between: free lists, warps and the event
// engine's slab outlive their machine in holders no collection empties
// (DESIGN §6), and the fglock lock path and EAPG's broadcasts allocate no
// closure per event. Every policy point and fglock, on ht-h, atm and cc at
// scale 0.1 and conc 8; two collections run between the warm-up run and the
// counted one.
func TestWarmRunAllocs(t *testing.T) {
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
			run := func() {
				if _, err := Run(cfg, k); err != nil {
					t.Fatalf("%s on %s: %v", proto, bench, err)
				}
			}
			run()
			runtime.GC()
			runtime.GC()
			allocs := mallocs(run)
			if allocs >= warmRunMaxAllocs {
				t.Errorf("%s on %s: warm run allocated %d objects, want fewer than %d",
					proto, bench, allocs, warmRunMaxAllocs)
			}
			t.Logf("%s on %s: %d objects", proto, bench, allocs)
		}
	}
}

// mallocs counts the objects one call of f allocates. Like
// testing.AllocsPerRun, it runs f with GOMAXPROCS 1.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
