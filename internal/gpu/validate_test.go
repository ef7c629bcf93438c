package gpu_test

import (
	"errors"
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
