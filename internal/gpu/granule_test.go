package gpu_test

import (
	"fmt"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/tm"
	"getm/internal/tmtest"
	"getm/internal/workloads"
)

// GETM must terminate at coarse granules. On each cell below, a reservation
// that changed hands once left requests queued behind their own warp or
// behind a younger owner, and the run deadlocked or ran to MaxCycles
// (DESIGN.md §4, "Stall-buffer wake-up"). Each must now complete, verify,
// replay serializably and keep its accounting. The slowest takes about 72K
// cycles; the MaxCycles bound makes a regression fail in well under a second.
func TestCoarseGranuleCellsComplete(t *testing.T) {
	cells := []struct {
		bench      string
		gran, conc int
	}{
		{"ht-h", 1024, 0}, {"ht-h", 1024, 8}, {"ht-h", 2048, 0}, {"ht-h", 2048, 8},
		{"ht-h", 4096, 0}, {"ht-h", 4096, 8},
		{"ht-m", 1024, 8}, {"ht-m", 2048, 0}, {"ht-m", 2048, 8}, {"ht-m", 4096, 0},
		{"ht-m", 4096, 8},
		{"ht-l", 1024, 0}, {"ht-l", 2048, 0}, {"ht-l", 2048, 8}, {"ht-l", 4096, 0},
		{"ht-l", 4096, 8},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%dB/conc%d", c.bench, c.gran, c.conc), func(t *testing.T) {
			k, err := workloads.Build(c.bench, workloads.TM, workloads.Params{Scale: 0.1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(ProtoGETM)
			cfg.GETM.GranularityBytes = c.gran
			cfg.Core.MaxTxWarps = c.conc
			cfg.Record = true
			cfg.MaxCycles = 500_000
			res, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := tm.CheckSerializable(res.InitialImage, nil, res.Committed); err != nil {
				t.Errorf("serializability violated: %v", err)
			}
			if err := tmtest.CheckAccounting(res.Metrics); err != nil {
				t.Error(err)
			}
		})
	}
}
