// Preset-identity tests: the policy engine must reproduce the legacy
// protocol dispatch bit for bit. These live in an external test package so
// they can drive the full gpu machine (gpu imports policy; the reverse
// import is test-only and cycle-free).
package policy_test

import (
	"errors"
	"testing"

	"getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/workloads"
)

func runOne(t *testing.T, cfg gpu.Config, bench string, scale float64, seed uint64) *gpu.Result {
	t.Helper()
	k, err := workloads.Build(bench, workloads.TM, workloads.Params{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpu.Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Golden behavioral fingerprints captured from the legacy protocol-name
// dispatch before the policy engine replaced it (DefaultConfig, scale 0.05,
// seed 42). Every preset must still land on these exact numbers, and its
// matrix point must name the same protocol as its name (gpu.ProtocolOf) — a
// drift here means the engine is not the protocol the paper measured.
func TestPresetFingerprints(t *testing.T) {
	fingerprints := []struct {
		proto  string
		bench  string
		cycles uint64
		commit uint64
		aborts uint64
		xbar   uint64 // up + down bytes
	}{
		{"getm", "ht-h", 5850, 384, 653, 128280},
		{"getm", "atm", 3934, 384, 194, 88428},
		{"warptm", "ht-h", 3486, 384, 184, 56662},
		{"warptm", "atm", 2962, 384, 46, 64686},
		{"warptm-el", "ht-h", 3518, 384, 184, 56622},
		{"warptm-el", "atm", 2863, 384, 46, 64498},
		{"eapg", "ht-h", 3467, 384, 163, 56278},
		{"eapg", "atm", 2884, 384, 41, 65666},
	}
	for _, fp := range fingerprints {
		fp := fp
		t.Run(fp.proto+"/"+fp.bench, func(t *testing.T) {
			t.Parallel()
			preset, ok := policy.Preset(fp.proto)
			if !ok {
				t.Fatalf("no preset for %q", fp.proto)
			}

			// Selecting the matrix point and naming the protocol are one
			// configuration.
			if got := gpu.ProtocolOf(preset); got != gpu.Protocol(fp.proto) {
				t.Fatalf("ProtocolOf(%v) = %q, want %q", preset, got, fp.proto)
			}
			res := runOne(t, gpu.DefaultConfig(gpu.ProtocolOf(preset)), fp.bench, 0.05, 42)
			m := res.Metrics
			if m.TotalCycles != fp.cycles || m.Commits != fp.commit ||
				m.Aborts != fp.aborts || m.XbarUpBytes+m.XbarDownBytes != fp.xbar {
				t.Errorf("preset run drifted from legacy fingerprint:\n"+
					"got  cycles=%d commits=%d aborts=%d xbar=%d\n"+
					"want cycles=%d commits=%d aborts=%d xbar=%d",
					m.TotalCycles, m.Commits, m.Aborts, m.XbarUpBytes+m.XbarDownBytes,
					fp.cycles, fp.commit, fp.aborts, fp.xbar)
			}
		})
	}
}

// Seed sweep over the presets: across ≥200 (preset, seed) cases the
// configuration both spellings of a preset select — its name and its full
// axis tuple name one Protocol — must run to completion, passing kernel
// verification and the machine's invariant checks. Seeds sweep the workload
// RNG, so this exercises the engine across many distinct conflict
// interleavings, not one golden run.
func TestPresetDifferentialSeeds(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 12
	}
	for _, proto := range []string{"getm", "warptm", "warptm-el", "eapg"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			preset, _ := policy.Preset(proto)
			byTuple, err := policy.Parse(preset.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			if got := gpu.ProtocolOf(byTuple); got != gpu.Protocol(proto) {
				t.Fatalf("the %s tuple names %q", proto, got)
			}
			cfg := gpu.DefaultConfig(gpu.Protocol(proto))
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				bench := "atm"
				if seed%2 == 0 {
					bench = "ht-h"
				}
				if res := runOne(t, cfg, bench, 0.02, seed); res.Metrics.Commits == 0 {
					t.Fatalf("seed %d bench %s: no commits", seed, bench)
				}
			}
		})
	}
}

// Every valid non-preset point must actually assemble and run to completion
// (all transactions commit exactly once) — the matrix's in-between points
// are runnable machines, not just accepted configurations.
func TestNonPresetPointsRun(t *testing.T) {
	for _, p := range policy.Valid() {
		if _, isPreset := policy.PresetName(p); isPreset {
			continue
		}
		p := p
		t.Run(p.Canonical(), func(t *testing.T) {
			t.Parallel()
			res := runOne(t, gpu.DefaultConfig(gpu.ProtocolOf(p)), "atm", 0.02, 7)
			if res.Metrics.Commits == 0 {
				t.Error("no commits")
			}
		})
	}
}

// An invalid point must be rejected by the machine, not silently mapped to
// the nearest protocol.
func TestInvalidPointRejected(t *testing.T) {
	cfg := gpu.DefaultConfig(gpu.ProtocolOf(policy.Policy{
		VersionMgmt:    policy.VMEager,
		ConflictDetect: policy.CDLazy,
		Resolution:     policy.ResTimestampOrder,
		Arbitration:    policy.ArbLocal,
	}))
	k, err := workloads.Build("atm", workloads.TM, workloads.Params{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpu.Run(cfg, k)
	if !errors.Is(err, policy.ErrInvalid) || !errors.Is(err, gpu.ErrUnknownProtocol) {
		t.Fatalf("invalid policy point: err %v, want ErrInvalid and ErrUnknownProtocol", err)
	}
}
