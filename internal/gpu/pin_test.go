package gpu_test

import (
	"runtime"
	"testing"
	"time"

	. "getm/internal/gpu"
	"getm/internal/mem"
	"getm/internal/policy"
	"getm/internal/trace"
	"getm/internal/workloads"
)

// A finished machine is garbage once its run returns: what outlives it (the
// stocked free lists and warps, the reset engine) keeps no pointer into it
// (DESIGN §6). The probe is the run's memory image, which nothing but the
// machine references after the kernel's Init returns, so its finalizer runs
// only if the whole machine is unreachable. No collection empties the
// holders, so a stocked object that still pointed at its machine would pin
// the machine for good; the finalizer must run after the first collection
// after the run. Every policy point and
// fglock, so every component's stocks are exercised. The traced arm keeps
// the run's Result.Trace reachable across the collection, as getm-serve's
// span capture and getm-bench -trace do: the recorder must keep its rings
// and samples, not the engine or the probes over the machine.
func TestFinishedMachineIsGarbage(t *testing.T) {
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	params := workloads.DefaultParams()
	params.Scale = 0.1
	for _, traced := range []bool{false, true} {
		for _, proto := range protos {
			variant := workloads.TM
			if proto == ProtoFGLock {
				variant = workloads.FGLock
			}
			k, err := workloads.Build("ht-h", variant, params)
			if err != nil {
				t.Fatal(err)
			}
			freed := make(chan struct{})
			probe, init := *k, k.Init
			probe.Init = func(img *mem.Image) {
				if init != nil {
					init(img)
				}
				runtime.SetFinalizer(img, func(*mem.Image) { close(freed) })
			}
			cfg := DefaultConfig(proto)
			cfg.Core.MaxTxWarps = 8
			if traced {
				cfg.Trace = &trace.Options{RingSize: 1 << 10, SampleInterval: 1000}
			}
			res, err := Run(cfg, &probe)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", proto, traced, err)
			}
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s (traced %v): the finished machine's image is still reachable after a collection", proto, traced)
			}
			if traced {
				if _, rows := res.Trace.Samples(); len(rows) == 0 || len(res.Trace.SeriesNames()) == 0 {
					t.Fatalf("%s: the kept trace lost its samples", proto)
				}
			}
			runtime.KeepAlive(res)
		}
	}
}
