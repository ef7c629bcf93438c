package gpu_test

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"getm/internal/core"
	. "getm/internal/gpu"
	"getm/internal/workloads"
)

// The second run of a cell reuses the first run's large arrays. The first
// run is fresh (runFresh), and the second follows a run of the same cell, so
// the second allocates less than the first by at least the arrays the
// configuration alone sizes: the LLC's tags and LRU, plus GETM's metadata
// ways and approximate filters or WarpTM's TCD filters. Register files,
// transaction logs and image pages recycle on top of that bound.
func TestSecondRunReusesMachineArrays(t *testing.T) {
	p := workloads.DefaultParams()
	p.Scale = 0.1
	k, err := workloads.Build("ht-h", workloads.TM, p)
	if err != nil {
		t.Fatal(err)
	}
	config := func(proto Protocol) Config {
		cfg := DefaultConfig(proto)
		cfg.Core.MaxTxWarps = 8
		return cfg
	}
	if arm, ok := freshArm(); ok {
		reportFresh(t, strconv.FormatUint(allocBytes(t, config(Protocol(arm)), k), 10))
		return
	}
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
		cfg := config(proto)
		first, err := strconv.ParseUint(runFresh(t, string(proto)), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, k); err != nil {
			t.Fatal(err)
		}
		second := allocBytes(t, cfg, k)
		want := recyclableBytes(cfg)
		if first < second || first-second < want {
			t.Errorf("%s: first run allocated %d B, second %d B; want a saving of at least %d B",
				proto, first, second, want)
		}
		t.Logf("%s: first %d B, second %d B, config-sized arrays %d B", proto, first, second, want)
	}
}

func allocBytes(t *testing.T, cfg Config, k *Kernel) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, k); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// recyclableBytes sizes the recycled arrays that cfg alone determines, the
// way mem.NewLLC, core.NewMetaTable and warptm.NewTCD size them.
func recyclableBytes(cfg Config) uint64 {
	pow2 := func(n int) int {
		p := 1
		for p < n {
			p <<= 1
		}
		return p
	}
	perPart := 2 * cfg.Partition.LLCBytes / cfg.Partition.LineBytes * 8
	switch cfg.Protocol {
	case ProtoGETM:
		g := cfg.GETM
		ways := pow2(max(g.PreciseEntries/cfg.Partitions/g.CuckooWays, 1))
		approx := pow2(max(g.ApproxEntries/cfg.Partitions/g.ApproxWays, 1))
		perPart += g.CuckooWays*ways*int(unsafe.Sizeof(core.Entry{})) + 2*g.ApproxWays*approx*8
	case ProtoWarpTM:
		w := cfg.WarpTM
		perPart += w.TCDWays * pow2(w.TCDEntries/w.TCDWays) * 8
	}
	return uint64(cfg.Partitions * perPart)
}
