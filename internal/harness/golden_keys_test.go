package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"getm/internal/gpu"
	"getm/internal/policy"
)

// goldenKeysSHA is the SHA-256 of the newline-joined store keys of
// TestGoldenStoreAddresses's table. The keys are content addresses of
// records on disk: a change here orphans every store directory written
// before it.
const goldenKeysSHA = "2fde65a69e56b68f99c524293083c4bde874a15ef8d2125086ecfc1ee878a906"

// TestGoldenStoreAddresses pins the store key of every machine an edge can
// build: every policy point and fglock, on each job shape the experiments,
// the API, the CLIs and getm-serve expand (harness.Job.Config), with each of
// getm-sweep's machine-knob mutations on top, at two workload scales.
func TestGoldenStoreAddresses(t *testing.T) {
	protos := []gpu.Protocol{gpu.ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, gpu.ProtocolOf(p))
	}
	shapes := []Job{
		{},
		{Conc: 8},
		{Cores: 5},
		{Cores: 56},
		{MetaEntries: 2048, Granularity: 64},
		{CycleBudget: 1000},
	}
	knobs := []func(*gpu.Config){
		func(*gpu.Config) {},
		func(c *gpu.Config) { c.GETM.StallLines = 8 },
		func(c *gpu.Config) { c.Core.BackoffCap = 1024 },
		func(c *gpu.Config) { c.WarpTM.MaxInFlight = 4 },
	}
	h := sha256.New()
	n := 0
	for _, proto := range protos {
		for _, shape := range shapes {
			for _, knob := range knobs {
				for _, scale := range []float64{0.1, 1} {
					j := shape
					j.Proto, j.Bench = proto, "ht-h"
					c := j.Cell(scale, 42)
					knob(&c.Config)
					fmt.Fprintln(h, c.StoreKey())
					n++
				}
			}
		}
	}
	if n != 624 {
		t.Fatalf("table has %d keys, want 624", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenKeysSHA {
		t.Fatalf("store addresses moved: keys hash to %s, want %s", got, goldenKeysSHA)
	}
}
