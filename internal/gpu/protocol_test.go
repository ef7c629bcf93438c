package gpu_test

import (
	"errors"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/workloads"
)

// An unresolvable Protocol is an error wrapping ErrUnknownProtocol, from
// Resolve and from a run on either engine — never a panic. Only the
// spellings ProtocolOf produces resolve: a bare tuple, a prefixed preset
// name and an invalid tuple all fail.
func TestUnknownProtocol(t *testing.T) {
	k, err := workloads.Build("atm", workloads.TM, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		proto   Protocol
		invalid bool // also wraps policy.ErrInvalid
	}{
		{"bogus", false},
		{"", false},
		{"vm=lazy", false},
		{"vm=eager,cd=eager,res=fww,arb=local", false},
		{"policy:getm", false},
		{"policy:vm=lazy", false},
		{"policy:arb=local,vm=eager,cd=eager,res=fww", false},
		{"policy:vm=eager,cd=lazy,res=timestamp,arb=local", true},
	} {
		if _, err := c.proto.Resolve(); !errors.Is(err, ErrUnknownProtocol) ||
			errors.Is(err, policy.ErrInvalid) != c.invalid {
			t.Errorf("Resolve(%q): err %v", c.proto, err)
		}
		for _, shards := range []int{0, 2} {
			cfg := smallConfig(c.proto)
			cfg.Record = false
			cfg.Shards = shards
			res, err := Run(cfg, k)
			if res != nil || !errors.Is(err, ErrUnknownProtocol) {
				t.Errorf("Run(%q, shards %d): res %v, err %v", c.proto, shards, res, err)
			}
		}
	}
}

// ProtocolOf and Resolve are inverses over every valid matrix point, and a
// preset is named by its legacy protocol name.
func TestProtocolOfRoundTrip(t *testing.T) {
	for _, p := range policy.Valid() {
		proto := ProtocolOf(p)
		got, err := proto.Resolve()
		if err != nil || got != p {
			t.Errorf("%v: ProtocolOf = %q, Resolve = %v, %v", p, proto, got, err)
		}
		if name, ok := policy.PresetName(p); ok && proto != Protocol(name) {
			t.Errorf("preset %s named %q", name, proto)
		}
	}
	if p, err := ProtoFGLock.Resolve(); err != nil || !p.IsZero() {
		t.Errorf("fglock resolves to %v, %v; want the zero Policy", p, err)
	}
}
