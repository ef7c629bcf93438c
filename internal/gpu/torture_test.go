package gpu_test

import (
	"fmt"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/tm"
	"getm/internal/workloads"
)

// tortureCfg returns a small contended stress configuration.
func tortureCfg(threads, cells, stride int) workloads.TortureConfig {
	tc := workloads.DefaultTortureConfig()
	tc.Threads = threads
	tc.Cells = cells
	tc.CellStrideWords = stride
	return tc
}

// TestTortureSerializability fuzzes every accepted policy point — the four
// presets and every other valid matrix point — with randomized transactional
// workloads across several seeds and sharing layouts; each run is checked
// for (a) the conservation invariant, (b) leaked reservations, and (c)
// replay serializability of the committed-transaction history.
func TestTortureSerializability(t *testing.T) {
	layouts := []struct {
		name   string
		cells  int
		stride int
	}{
		{"hot-packed", 24, 1},   // few cells, shared granules: worst case
		{"hot-isolated", 24, 4}, // few cells, private granules
		{"wide", 256, 2},        // low contention
	}
	for _, pol := range policy.Valid() {
		proto := ProtocolOf(pol)
		for _, lay := range layouts {
			for seed := uint64(1); seed <= 3; seed++ {
				proto, lay, seed := proto, lay, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", proto, lay.name, seed), func(t *testing.T) {
					t.Parallel()
					k := workloads.BuildTorture(
						workloads.Params{Scale: 1, Seed: seed},
						tortureCfg(256, lay.cells, lay.stride))
					cfg := smallConfig(proto)
					res, err := Run(cfg, k)
					if err != nil {
						t.Fatal(err)
					}
					if res.Metrics.Commits == 0 {
						t.Fatal("no commits")
					}
					if err := tm.CheckSerializable(res.InitialImage, nil, res.Committed); err != nil {
						t.Fatalf("serializability violated: %v", err)
					}
				})
			}
		}
	}
}

// TestTortureSilentCommits checks that the read-only transactions in the
// torture mix actually exercise WarpTM's TCD silent-commit path.
func TestTortureSilentCommits(t *testing.T) {
	k := workloads.BuildTorture(workloads.Params{Scale: 1, Seed: 7}, tortureCfg(512, 128, 2))
	res, err := Run(smallConfig(ProtoWarpTM), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SilentCommits == 0 {
		t.Fatal("no TCD silent commits despite read-only transactions")
	}
}

// TestTortureGETMQueueing checks the stall buffer engages under the packed
// hot layout.
func TestTortureGETMQueueing(t *testing.T) {
	k := workloads.BuildTorture(workloads.Params{Scale: 1, Seed: 9}, tortureCfg(512, 16, 1))
	res, err := Run(smallConfig(ProtoGETM), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Extra["vu-queued"] == 0 {
		t.Fatal("hot packed layout produced no stall-buffer queueing")
	}
}

// TestGETMRolloverEndToEnd forces timestamp rollovers with a narrow
// timestamp width on a contended workload and verifies the machine drains,
// the invariant holds, and at least one rollover occurred.
func TestGETMRolloverEndToEnd(t *testing.T) {
	k := workloads.BuildTorture(workloads.Params{Scale: 1, Seed: 11}, tortureCfg(512, 12, 1))
	cfg := smallConfig(ProtoGETM)
	cfg.GETM.TSBits = 7 // rollover threshold 112
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Extra["rollovers"] == 0 {
		t.Skip("contention too low to force a rollover at this scale")
	}
	if err := tm.CheckSerializable(res.InitialImage, nil, res.Committed); err != nil {
		t.Fatalf("serializability across rollover violated: %v", err)
	}
}

// TestRolloverResumesQueuedWarps pins the rollover re-admission bugfix: with
// narrow timestamps a contended run triggers rollover while MaxTxWarps keeps
// warps queued behind the admission gate. Before the fix, a core whose
// runnable warps all queued during the drain deadlocked — the queue was only
// retried on endTx, and the drain had consumed every transaction that could
// end. The run completing (no deadlock error) plus a nonzero rollover count
// is the regression check.
func TestRolloverResumesQueuedWarps(t *testing.T) {
	k := workloads.BuildTorture(workloads.Params{Scale: 1, Seed: 11}, tortureCfg(512, 12, 1))
	cfg := smallConfig(ProtoGETM)
	cfg.Record = false
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
}
