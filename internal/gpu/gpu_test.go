package gpu_test

import (
	"reflect"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/tm"
	"getm/internal/workloads"
)

// smallConfig shrinks the machine for fast integration tests.
func smallConfig(p Protocol) Config {
	cfg := DefaultConfig(p)
	cfg.Cores = 4
	cfg.Partitions = 2
	cfg.Core.WarpsPerCore = 8
	cfg.Record = true
	return cfg
}

func smallParams() workloads.Params {
	p := workloads.DefaultParams()
	p.Scale = 0.05
	return p
}

func runSmall(t *testing.T, proto Protocol, bench string) *Result {
	t.Helper()
	variant := workloads.TM
	if proto == ProtoFGLock {
		variant = workloads.FGLock
	}
	k, err := workloads.Build(bench, variant, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(smallConfig(proto), k)
	if err != nil {
		t.Fatalf("%s on %s: %v", bench, proto, err)
	}
	return res
}

func TestAllProtocolsAllBenchmarks(t *testing.T) {
	for _, bench := range workloads.Names() {
		for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM, ProtoWarpTMEL, ProtoEAPG, ProtoFGLock} {
			bench, proto := bench, proto
			t.Run(bench+"/"+string(proto), func(t *testing.T) {
				res := runSmall(t, proto, bench)
				if res.Metrics.TotalCycles == 0 {
					t.Fatal("no cycles simulated")
				}
				if proto != ProtoFGLock && res.Metrics.Commits == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

func TestSerializabilityEndToEnd(t *testing.T) {
	// The replay checker must accept every TM protocol's history on a
	// contended workload.
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM, ProtoWarpTMEL} {
		proto := proto
		for _, bench := range []string{"ht-h", "atm", "ap"} {
			bench := bench
			t.Run(bench+"/"+string(proto), func(t *testing.T) {
				res := runSmall(t, proto, bench)
				if len(res.Committed) == 0 {
					t.Fatal("no committed transactions recorded")
				}
				if err := tm.CheckSerializable(res.InitialImage, nil, res.Committed); err != nil {
					t.Fatalf("serializability violated: %v", err)
				}
			})
		}
	}
}

func TestConcurrencyThrottle(t *testing.T) {
	cfg := smallConfig(ProtoWarpTM)
	cfg.Core.MaxTxWarps = 1
	k, err := workloads.Build("ht-h", workloads.TM, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TxWaitCycles == 0 {
		t.Fatal("throttled run should accumulate tx wait cycles")
	}
}

func TestGETMStallBufferMetrics(t *testing.T) {
	res := runSmall(t, ProtoGETM, "ht-h")
	if res.Metrics.Extra["vu-requests"] == 0 {
		t.Fatal("no VU requests recorded")
	}
	if res.Metrics.MetaAccessCycles.Total() == 0 {
		t.Fatal("no metadata access samples")
	}
}

func TestDeterminism(t *testing.T) {
	a := runSmall(t, ProtoGETM, "atm")
	b := runSmall(t, ProtoGETM, "atm")
	if a.Metrics.TotalCycles != b.Metrics.TotalCycles ||
		a.Metrics.Commits != b.Metrics.Commits ||
		a.Metrics.Aborts != b.Metrics.Aborts {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.Metrics.TotalCycles, a.Metrics.Commits, a.Metrics.Aborts,
			b.Metrics.TotalCycles, b.Metrics.Commits, b.Metrics.Aborts)
	}
}

func TestEAPGCountsBroadcastEffects(t *testing.T) {
	res := runSmall(t, ProtoEAPG, "ht-h")
	if res.Metrics.Extra["eapg-broadcasts"] == 0 {
		t.Fatal("no signature broadcasts recorded")
	}
}

func TestScaledConfigRuns(t *testing.T) {
	cfg := ScaledConfig(ProtoGETM)
	cfg.Core.WarpsPerCore = 4
	k, err := workloads.Build("atm", workloads.TM, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, k); err != nil {
		t.Fatal(err)
	}
}

// Partition.LineBytes is the machine's one line size. A 64-byte-line machine
// keeps each protocol's history serializable and runs differently from the
// 128-byte default.
func TestPartitionLineBytes(t *testing.T) {
	k, err := workloads.Build("ht-h", workloads.TM, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
		cfg := smallConfig(proto)
		base, err := Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Partition.LineBytes = 64
		res, err := Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Committed) == 0 {
			t.Fatalf("%s: 64-byte lines: no committed transactions recorded", proto)
		}
		if err := tm.CheckSerializable(res.InitialImage, nil, res.Committed); err != nil {
			t.Errorf("%s: 64-byte lines: serializability violated: %v", proto, err)
		}
		if reflect.DeepEqual(res.Metrics, base.Metrics) {
			t.Errorf("%s: 64-byte lines ran the same as 128-byte lines", proto)
		}
	}
}
