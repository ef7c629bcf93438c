package gpu_test

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/tm"
	"getm/internal/workloads"
)

// emptyPools drops every array the recyclers hold (a sync.Pool empties over
// two collections), so the next run allocates afresh.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// recycledConfig is smallConfig without Record, so a run hands back its
// memory image too.
func recycledConfig(p Protocol) Config {
	cfg := smallConfig(p)
	cfg.Record = false
	return cfg
}

// metricsJSON runs k and returns its canonical metrics JSON (what the store
// and the perf digests hash).
func metricsJSON(t *testing.T, cfg Config, k *Kernel) string {
	t.Helper()
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatalf("%s on %s: %v", k.Name, cfg.Protocol, err)
	}
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A run on recycled arrays is the run on fresh ones. For every protocol a
// run accepts (each valid policy point, and fglock) on every workload: run
// the cell with the pools empty, run the same protocol on the next workload
// to leave dirty arrays of the same geometry in the pools, then run the cell
// again. The two runs of the cell must give byte-identical metrics. GC is
// off so the pools hand back what they are given.
func TestFreshVsRecycledIdentical(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	names := workloads.Names()
	kernels := map[workloads.Variant][]*Kernel{}
	for _, v := range []workloads.Variant{workloads.TM, workloads.FGLock} {
		for _, b := range names {
			k, err := workloads.Build(b, v, smallParams())
			if err != nil {
				t.Fatal(err)
			}
			kernels[v] = append(kernels[v], k)
		}
	}
	for _, proto := range protos {
		ks := kernels[workloads.TM]
		if proto == ProtoFGLock {
			ks = kernels[workloads.FGLock]
		}
		cfg := recycledConfig(proto)
		for i, k := range ks {
			emptyPools()
			fresh := metricsJSON(t, cfg, k)
			metricsJSON(t, cfg, ks[(i+1)%len(ks)])
			if recycled := metricsJSON(t, cfg, k); recycled != fresh {
				t.Errorf("%s on %s: recycled run differs from fresh\nfresh:    %s\nrecycled: %s",
					proto, names[i], fresh, recycled)
			}
		}
	}
}

// Under Record the memory image stays with the Result: later runs recycle
// their own arrays but never the pages of a FinalImage handed out, so it is
// unchanged after them and still replays.
func TestRecordKeepsFinalImage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
		res := runSmall(t, proto, "atm")
		want := res.FinalImage.Snapshot()
		for _, bench := range []string{"ht-h", "cl", "atm"} {
			metricsJSON(t, recycledConfig(proto), buildSmall(t, bench))
		}
		if res.FinalImage.Len() != want.Len() || !res.FinalImage.Equal(want) {
			t.Fatalf("%s: FinalImage changed after later runs", proto)
		}
		if err := tm.CheckSerializable(res.InitialImage, res.FinalImage, res.Committed); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

// One kernel runs on two machines at once (make race runs this under the
// race detector): gpu.Kernel's contract keeps it read-only, so both runs
// produce the same metrics.
func TestSharedKernelConcurrentRuns(t *testing.T) {
	k := buildSmall(t, "ht-h")
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
		cfg := recycledConfig(proto)
		var out [2][]byte
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := Run(cfg, k)
				if err != nil {
					t.Errorf("%s: %v", proto, err)
					return
				}
				out[i], err = json.Marshal(res.Metrics)
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if string(out[0]) != string(out[1]) {
			t.Fatalf("%s: concurrent runs of one kernel differ:\n%s\n%s", proto, out[0], out[1])
		}
	}
}
