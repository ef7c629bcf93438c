package gpu_test

import (
	"errors"
	"strings"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/store"
	"getm/internal/workloads"
)

// Every machine the paper runs is in the accepted domain: both of its
// machines under every valid policy point and fglock, and Fig 14's table
// sizes and granules on each. Validate reads the config and never rewrites
// it, so no store address moves.
func TestConfigValidateAcceptsPaperMachines(t *testing.T) {
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	for _, proto := range protos {
		for name, machine := range map[string]func(Protocol) Config{"default": DefaultConfig, "scaled": ScaledConfig} {
			base := machine(proto)
			var cfgs []Config
			for _, entries := range []int{2048, 4096, 8192} {
				c := base
				c.GETM.PreciseEntries = entries
				cfgs = append(cfgs, c)
			}
			for _, g := range []int{16, 32, 64, 128} {
				c := base
				c.GETM.GranularityBytes = g
				cfgs = append(cfgs, c)
			}
			for _, cfg := range append(cfgs, base) {
				before := store.Key(cfg, "ht-h", 0.1, 42)
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s %s (entries %d, granule %d): %v", name, proto,
						cfg.GETM.PreciseEntries, cfg.GETM.GranularityBytes, err)
				}
				if after := store.Key(cfg, "ht-h", 0.1, 42); after != before {
					t.Errorf("%s %s: Validate moved the store key %s -> %s", name, proto, before, after)
				}
			}
		}
	}
}

// Each range's edges: its bounds are accepted, and the first value past
// each, or a value the model cannot run, is an error matching
// ErrInvalidConfig.
func TestConfigValidateRanges(t *testing.T) {
	cases := []struct {
		set func(*Config, int)
		ok  []int
		bad []int
	}{
		{func(c *Config, v int) { c.Cores = v }, []int{1, 15, 56}, []int{-1, 0, 57}},
		{func(c *Config, v int) { c.Core.MaxTxWarps = v }, []int{0, 1, 48}, []int{-1, 49}},
		{func(c *Config, v int) { c.GETM.GranularityBytes = v }, []int{8, 16, 1024, 4096}, []int{-8, 0, 3, 4, 48, 8192}},
		{func(c *Config, v int) { c.GETM.PreciseEntries = v }, []int{24, 4096, 65536}, []int{-1, 1, 3, 23, 65537}},
		{func(c *Config, v int) { c.GETM.StallLines = v }, []int{0, 4, 64}, []int{-1}},
		{func(c *Config, v int) { c.WarpTM.MaxInFlight = v }, []int{1, 2, 16}, []int{-2, 0}},
		{func(c *Config, v int) { c.Shards = v }, []int{0}, []int{1, 2}},
	}
	for i, c := range cases {
		for _, v := range c.ok {
			cfg := DefaultConfig(ProtoGETM)
			c.set(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("range %d: %d rejected: %v", i, v, err)
			}
		}
		for _, v := range c.bad {
			cfg := DefaultConfig(ProtoGETM)
			c.set(&cfg, v)
			if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("range %d: %d: err = %v, want ErrInvalidConfig", i, v, err)
			}
		}
	}
	// The metadata floor is the machine's: 8 partitions × 4 ways at 56 cores.
	cfg := ScaledConfig(ProtoGETM)
	cfg.GETM.PreciseEntries = 24
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("24 entries on 8 partitions: err = %v, want ErrInvalidConfig", err)
	}
	// An unknown protocol keeps its own identity.
	if err := DefaultConfig("bogus").Validate(); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("unknown protocol: err = %v, want ErrUnknownProtocol", err)
	}
}

// Every count and rate the model divides by or indexes with is refused at 0
// (and below), with a reason that names the field, before anything runs:
// each of these values once panicked mid-run, started no warp, or ran as 1
// under another store address. So are LLC geometries NewLLC cannot build.
func TestConfigValidateRejectsZeroCounts(t *testing.T) {
	k, err := workloads.Build("ht-h", workloads.TM, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field string
		set   func(*Config, int)
		bad   []int
	}{
		{"Partitions", func(c *Config, v int) { c.Partitions = v }, []int{0, -1}},
		{"Core.WarpsPerCore", func(c *Config, v int) { c.Core.WarpsPerCore = v }, []int{0, -1}},
		{"Xbar.FlitBytes", func(c *Config, v int) { c.Xbar.FlitBytes = v }, []int{0, -32}},
		{"Partition.DRAMBanks", func(c *Config, v int) { c.Partition.DRAMBanks = v }, []int{0, -1}},
		{"Partition.ServiceRate", func(c *Config, v int) { c.Partition.ServiceRate = v }, []int{0, -1}},
		{"Partition LLC", func(c *Config, v int) { c.Partition.LLCWays = v }, []int{0, -8, 3}},
		{"Partition LLC", func(c *Config, v int) { c.Partition.LLCBytes = v }, []int{0, 1000, 96 << 10, -(128 << 10)}},
		{"Partition LLC", func(c *Config, v int) { c.Partition.LineBytes = v }, []int{0, -128, 96}},
		{"GETM.CuckooWays", func(c *Config, v int) { c.GETM.CuckooWays = v }, []int{0, -4}},
		{"GETM.ApproxWays", func(c *Config, v int) { c.GETM.ApproxWays = v }, []int{0, -4}},
		{"GETM.CommitBytesPerCycle", func(c *Config, v int) { c.GETM.CommitBytesPerCycle = v }, []int{0, -32}},
		{"WarpTM.TCDWays", func(c *Config, v int) { c.WarpTM.TCDWays = v }, []int{0, -4}},
		{"WarpTM.ValidateEntriesPerCycle", func(c *Config, v int) { c.WarpTM.ValidateEntriesPerCycle = v }, []int{0, -1}},
		{"WarpTM.CommitBytesPerCycle", func(c *Config, v int) { c.WarpTM.CommitBytesPerCycle = v }, []int{0, -32}},
	}
	for _, c := range cases {
		for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
			for _, v := range c.bad {
				cfg := DefaultConfig(proto)
				c.set(&cfg, v)
				err := cfg.Validate()
				if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), c.field) {
					t.Errorf("%s %d on %s: err = %v, want ErrInvalidConfig naming %s", c.field, v, proto, err, c.field)
				}
				if res, err := Run(cfg, k); res != nil || !errors.Is(err, ErrInvalidConfig) {
					t.Errorf("%s %d on %s: Run gave res %v, err %v; want no result and ErrInvalidConfig", c.field, v, proto, res, err)
				}
			}
		}
	}
}

// RunContext refuses a machine outside the domain before it simulates: a
// 0 B granule, which once divided by zero inside the VU, is an error.
func TestRunRejectsInvalidConfig(t *testing.T) {
	k, err := workloads.Build("ht-h", workloads.TM, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*Config){
		"granule 0":      func(c *Config) { c.GETM.GranularityBytes = 0 },
		"cores -1":       func(c *Config) { c.Cores = -1 },
		"in-flight 0":    func(c *Config) { c.WarpTM.MaxInFlight = 0 },
		"stall lines -1": func(c *Config) { c.GETM.StallLines = -1 },
	} {
		cfg := DefaultConfig(ProtoGETM)
		set(&cfg)
		res, err := Run(cfg, k)
		if res != nil || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: res %v, err %v; want no result and ErrInvalidConfig", name, res, err)
		}
	}
}
