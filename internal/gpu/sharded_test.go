package gpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/workloads"
)

// shardedConfig is smallConfig without the features the sharded machine
// cannot host (Record).
func shardedConfig(p Protocol, shards int) Config {
	cfg := smallConfig(p)
	cfg.Record = false
	cfg.Shards = shards
	return cfg
}

func runSharded(t *testing.T, cfg Config, bench string) *Result {
	t.Helper()
	variant := workloads.TM
	if cfg.Protocol == ProtoFGLock {
		variant = workloads.FGLock
	}
	k, err := workloads.Build(bench, variant, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatalf("%s on %s (shards=%d): %v", bench, cfg.Protocol, cfg.Shards, err)
	}
	return res
}

// TestShardedIdenticalAcrossWorkers is the gpu-level half of the par-gate:
// for every shardable protocol the parallel machine must produce metrics
// byte-identical across worker counts — worker count is physical, never
// semantic. (Run under -race by `make par-gate`.)
func TestShardedIdenticalAcrossWorkers(t *testing.T) {
	for _, proto := range []Protocol{ProtoGETM, ProtoFGLock} {
		for _, bench := range []string{"ht-h", "atm", "ap"} {
			proto, bench := proto, bench
			t.Run(bench+"/"+string(proto), func(t *testing.T) {
				ref := runSharded(t, shardedConfig(proto, 1), bench)
				if ref.Metrics.TotalCycles == 0 {
					t.Fatal("no cycles simulated")
				}
				if proto != ProtoFGLock && ref.Metrics.Commits == 0 {
					t.Fatal("no transactions committed")
				}
				for _, w := range []int{2, 4, 16} {
					got := runSharded(t, shardedConfig(proto, w), bench)
					if !reflect.DeepEqual(ref.Metrics, got.Metrics) {
						t.Fatalf("shards=1 vs shards=%d metrics diverge:\n%+v\nvs\n%+v",
							w, ref.Metrics, got.Metrics)
					}
				}
			})
		}
	}
}

// TestShardedGoldenDigests pins sharded-class results across commits. The
// other sharded tests compare runs within one build, so a change that moved
// the engine's cross-shard mail order would silently re-key every stored
// -shards record. Each digest is the SHA-256 of the stdout of
// `getm-sim -proto getm -bench <bench> -scale 0.3 -shards 2`, whose report
// lines the builder below reproduces.
func TestShardedGoldenDigests(t *testing.T) {
	for _, tc := range []struct{ bench, sha256 string }{
		{"ht-h", "59585e0313d461ac79e796f95362d9d699c872c49125487926d5e43210c690d9"},
		{"atm", "fc0b80cb28e70beb03db2918ffb08bc53121df6898a7308ba2b69cef1484f5ed"},
	} {
		cfg := DefaultConfig(ProtoGETM)
		cfg.Shards = 2
		k, err := workloads.Build(tc.bench, workloads.TM, workloads.Params{Scale: 0.3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, k)
		if err != nil {
			t.Fatalf("%s: %v", tc.bench, err)
		}
		m := res.Metrics
		var b strings.Builder
		fmt.Fprintf(&b, "benchmark        %s (getm, %d cores, conc NL)\n", tc.bench, cfg.Cores)
		fmt.Fprintf(&b, "total cycles     %d\n", m.TotalCycles)
		fmt.Fprintf(&b, "tx exec cycles   %d\n", m.TxExecCycles)
		fmt.Fprintf(&b, "tx wait cycles   %d\n", m.TxWaitCycles)
		fmt.Fprintf(&b, "commits          %d\n", m.Commits)
		fmt.Fprintf(&b, "aborts           %d (%.0f per 1K commits)\n", m.Aborts, m.AbortsPer1KCommits())
		fmt.Fprintf(&b, "xbar traffic     %d B up, %d B down\n", m.XbarUpBytes, m.XbarDownBytes)
		if m.SilentCommits > 0 {
			fmt.Fprintf(&b, "silent commits   %d\n", m.SilentCommits)
		}
		if m.MetaAccessCycles.Total() > 0 {
			fmt.Fprintf(&b, "meta access      %.3f cycles/request\n", m.MetaAccessCycles.Mean())
			fmt.Fprintf(&b, "stall buffer     max %d queued, %.2f reqs/addr\n",
				m.StallBufMaxOccupancy, m.StallBufPerAddr.Mean())
		}
		if len(m.AbortsByCause) > 0 {
			fmt.Fprintf(&b, "abort causes     %v\n", m.AbortsByCause)
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%s -shards 2 report digest %s, want %s; report:\n%s", tc.bench, got, tc.sha256, b.String())
		}
	}
}

// TestShardedRepeatDeterminism: the same sharded run twice must be identical
// (no scheduling nondeterminism leaks into results).
func TestShardedRepeatDeterminism(t *testing.T) {
	a := runSharded(t, shardedConfig(ProtoGETM, 3), "atm")
	b := runSharded(t, shardedConfig(ProtoGETM, 3), "atm")
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("sharded run not reproducible:\n%+v\nvs\n%+v", a.Metrics, b.Metrics)
	}
}

// TestShardedFallbackMatchesSerial: a config the sharded machine cannot host
// (Record) must silently run on the serial engine, byte-identical to
// Shards=0.
func TestShardedFallbackMatchesSerial(t *testing.T) {
	serial := smallConfig(ProtoGETM) // Record=true → not shardable
	withShards := serial
	withShards.Shards = 4
	a := runSharded(t, serial, "atm")
	b := runSharded(t, withShards, "atm")
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("fallback diverged from serial:\n%+v\nvs\n%+v", a.Metrics, b.Metrics)
	}
}

// TestShardedBudgetTruncates exercises runShardedContext's budget path.
func TestShardedBudgetTruncates(t *testing.T) {
	cfg := shardedConfig(ProtoGETM, 2)
	cfg.CycleBudget = 500
	res := runSharded(t, cfg, "ht-h")
	if !res.Truncated {
		t.Fatal("expected truncated result under tiny cycle budget")
	}
	if res.TruncatedAt == 0 || res.TruncatedAt > 500 {
		t.Fatalf("TruncatedAt = %d, want in (0, 500]", res.TruncatedAt)
	}
}

// TestRolloverResumesQueuedWarps pins the rollover re-admission bugfix: with
// narrow timestamps a contended run triggers rollover while MaxTxWarps keeps
// warps queued behind the admission gate. Before the fix, a core whose
// runnable warps all queued during the drain deadlocked — the queue was only
// retried on endTx, and the drain had consumed every transaction that could
// end. The run completing (no deadlock error) plus a nonzero rollover count
// is the regression check, on both engines.
func TestRolloverResumesQueuedWarps(t *testing.T) {
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(map[int]string{0: "serial", 2: "sharded"}[shards], func(t *testing.T) {
			k := workloads.BuildTorture(workloads.Params{Scale: 1, Seed: 11}, tortureCfg(512, 12, 1))
			cfg := shardedConfig(ProtoGETM, shards)
			cfg.GETM.TSBits = 5 // threshold 28: a few dozen aborts trigger rollover
			// One warp per core: every warp parks behind the closed admission
			// gate during the drain, so the machine livelocks unless the
			// resume explicitly wakes the queues.
			cfg.Core.WarpsPerCore = 1
			cfg.MaxCycles = 2_000_000
			res, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Extra["rollovers"] == 0 {
				t.Fatal("workload did not trigger a rollover; test is vacuous")
			}
			if res.Metrics.Commits == 0 {
				t.Fatal("no commits after rollover")
			}
		})
	}
}

// BenchmarkRunEngines times one full GETM run per engine flavor. On a
// multi-core host sharded wall-clock improves toward serial/min(workers,
// domains); on a single-core host sharded-Nw ~= sharded-1w by construction.
// Recorded numbers live in BENCH_parallel.json (make bench-parallel).
func BenchmarkRunEngines(b *testing.B) {
	params := smallParams()
	params.Scale = 0.3
	for _, bc := range []struct {
		name   string
		shards int
	}{{"serial", 0}, {"sharded-1w", 1}, {"sharded-2w", 2}, {"sharded-4w", 4}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k, err := workloads.Build("ht-h", workloads.TM, params)
				if err != nil {
					b.Fatal(err)
				}
				cfg := shardedConfig(ProtoGETM, bc.shards)
				b.StartTimer()
				if _, err := Run(cfg, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
