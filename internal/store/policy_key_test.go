package store

import (
	"testing"

	"getm/internal/gpu"
	"getm/internal/policy"
)

// Golden content addresses captured before the policy matrix existed. These
// are the API-stability contract for result stores on disk: selecting a
// preset by matrix point must hash to the same record a protocol-name run
// wrote years of campaigns under. A change here silently orphans every
// existing store directory.
func TestKeyStabilityAcrossPolicyRedesign(t *testing.T) {
	golden := []struct {
		proto      string
		defaultKey string // Key(DefaultConfig, "atm", 1, 42)
		scaledKey  string // Key(ScaledConfig, "ht-h", 0.5, 7)
	}{
		{"getm",
			"6b168f7f1ce79495f210b6799b01dc5b29a145912115481bb08f7af8830cb0ac",
			"bfc2928067db9572873eddc614496942957673e927cdfa432a5c0d3ae4e66ff6"},
		{"warptm",
			"48390a2f364f005ef4f880081496120644d7b28f7f5d10f7a15f7b85830979ee",
			"6d7aa328859ebde1ab8b4541da57abdbd23d7396c56643503e263947fba0d953"},
		{"warptm-el",
			"2011ce248e04390a425d53280820c6a8beef1794778fdb9571ca67a319abd0a8",
			"a5c02d5d5e6357b628fa8d7a9d88650b580cd6b5243714378de0f08f52cf94db"},
		{"eapg",
			"5060b5b9f427d294df2d2460465cb536e4558fa96e48e2128f5330ec8acbac3b",
			"632394f2b35e88b0f13103338d40e270bdd0c96334aebbe44fd6d71747a1d8ba"},
		{"fglock",
			"390ef078c30da6ead996e56883c16a1ae3d437b314a43b50ecc8c412e628db52",
			"669bd5ac757fdd83f08410ac63f651a903d8601b0cafaab47227b7cfeeba6717"},
	}
	for _, g := range golden {
		if got := Key(gpu.DefaultConfig(gpu.Protocol(g.proto)), "atm", 1, 42); got != g.defaultKey {
			t.Errorf("%s default key drifted:\ngot  %s\nwant %s", g.proto, got, g.defaultKey)
		}
		if got := Key(gpu.ScaledConfig(gpu.Protocol(g.proto)), "ht-h", 0.5, 7); got != g.scaledKey {
			t.Errorf("%s scaled key drifted:\ngot  %s\nwant %s", g.proto, got, g.scaledKey)
		}

		// Selecting the same protocol as a matrix preset must be
		// key-invisible: same content address, so old records are reused.
		if preset, ok := policy.Preset(g.proto); ok {
			if got := Key(gpu.DefaultConfig(gpu.ProtocolOf(preset)), "atm", 1, 42); got != g.defaultKey {
				t.Errorf("%s preset-policy key diverged from name key:\ngot  %s\nwant %s",
					g.proto, got, g.defaultKey)
			}
		}
	}
}

// Non-preset matrix points must get their own distinct, deterministic
// addresses — never colliding with a preset's records or each other.
func TestKeyNonPresetPolicies(t *testing.T) {
	presetKeys := map[string]bool{}
	for _, proto := range []string{"getm", "warptm", "warptm-el", "eapg", "fglock"} {
		presetKeys[Key(gpu.DefaultConfig(gpu.Protocol(proto)), "atm", 1, 42)] = true
	}

	seen := map[string]string{}
	for _, p := range policy.Valid() {
		if _, isPreset := policy.PresetName(p); isPreset {
			continue
		}
		k1 := Key(gpu.DefaultConfig(gpu.ProtocolOf(p)), "atm", 1, 42)
		if presetKeys[k1] {
			t.Errorf("non-preset %v collides with a preset key", p)
		}
		if prev, dup := seen[k1]; dup {
			t.Errorf("points %v and %s share key %s", p, prev, k1)
		}
		seen[k1] = p.Canonical()
		// The address is the one these points always had: the key of
		// "policy:" plus the canonical tuple.
		if k2 := Key(gpu.DefaultConfig(gpu.Protocol("policy:"+p.Canonical())), "atm", 1, 42); k2 != k1 {
			t.Errorf("%v key moved from its policy:<tuple> address", p)
		}
	}
	if len(seen) != 8 {
		t.Errorf("%d non-preset points keyed, want 8", len(seen))
	}
}
