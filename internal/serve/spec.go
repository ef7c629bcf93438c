package serve

import (
	"fmt"
	"strconv"
	"strings"

	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/policy"
)

// RunSpec is the body of POST /v1/runs: one simulation request. The zero
// values of Scale and Seed select the library's documented sentinels (1.0
// and 42), so the minimal request is just {"protocol": ..., "benchmark": ...}.
type RunSpec struct {
	// Protocol is one of getm, warptm, warptm-el, eapg, fglock. Ignored
	// when Policy is set. After validate it holds the run's protocol
	// identity (gpu.Config.Protocol) whichever field named it.
	Protocol string `json:"protocol"`
	// Policy selects a protocol-matrix point directly: a preset name
	// ("getm", "warptm", "warptm-el", "eapg") or an axis list such as
	// "vm=eager,cd=eager,res=timestamp,arb=local". It takes precedence over
	// Protocol; a preset point is indistinguishable from naming the protocol
	// (same run id, same store record). Invalid combinations are refused
	// with 400.
	Policy string `json:"policy,omitempty"`
	// Benchmark is one of the paper's workloads (see workloads.Names).
	Benchmark string `json:"benchmark"`
	// Scale shrinks the workload (0 = 1.0, the full reproduction scale).
	// Requests above the server's -max-scale are refused with 400.
	Scale float64 `json:"scale,omitempty"`
	// Seed drives workload generation (0 = 42).
	Seed uint64 `json:"seed,omitempty"`
	// Conc caps concurrent transactional warps per core (0 = unlimited).
	Conc int `json:"conc,omitempty"`
	// Cores selects the machine: 0 or 15 for the paper's GTX480-like
	// config, 56 for the scaled one. A cell outside harness.Cell.Validate's
	// domain is refused with 400.
	Cores int `json:"cores,omitempty"`
	// CycleBudget bounds the simulation's cost: the run stops after this
	// many simulated cycles and returns partial metrics tagged truncated
	// (0 = no bound). A stored complete result still satisfies a budgeted
	// request — the budget bounds simulation cost, not disk reads.
	CycleBudget uint64 `json:"cycle_budget,omitempty"`
	// TimeoutMS overrides the per-request wall-clock deadline, capped at
	// the server's -request-timeout (0 = the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST return 202 with the run id immediately; poll
	// GET /v1/runs/{id} for the durable job status and result.
	Async bool `json:"async,omitempty"`
}

var protocols = map[string]bool{
	string(gpu.ProtoGETM):     true,
	string(gpu.ProtoWarpTM):   true,
	string(gpu.ProtoWarpTMEL): true,
	string(gpu.ProtoEAPG):     true,
	string(gpu.ProtoFGLock):   true,
}

// normalize applies the documented zero-value sentinels in place.
func (sp *RunSpec) normalize() {
	if sp.Scale == 0 {
		sp.Scale = 1.0
	}
	if sp.Seed == 0 {
		sp.Seed = 42
	}
}

// validate checks a normalized spec against the server's limits (maxScale
// is its admission ceiling), then checks the cell it asks for. A spec
// carrying a Policy is parsed here and its point canonicalized into Protocol
// (gpu.ProtocolOf), so policy and protocol spellings of the same point share
// one run id; invalid points fail — the caller maps the error to 400.
func (sp *RunSpec) validate(maxScale float64) error {
	if sp.Policy != "" {
		p, err := policy.Parse(sp.Policy)
		if err != nil {
			return err
		}
		sp.Protocol = string(gpu.ProtocolOf(p))
	} else if !protocols[sp.Protocol] {
		return fmt.Errorf("unknown protocol %q (want getm, warptm, warptm-el, eapg, fglock)", sp.Protocol)
	}
	if sp.Scale > maxScale {
		return fmt.Errorf("scale %g above the server's limit %g", sp.Scale, maxScale)
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d must be >= 0", sp.TimeoutMS)
	}
	return sp.cell().Validate()
}

// policyLabel is the bounded-cardinality /metrics label for the spec: the
// full canonical policy tuple for TM runs (preset or not), "fglock" for the
// lock variant. Only validated specs reach it, so the label set is the 12
// valid matrix points plus fglock.
func (sp *RunSpec) policyLabel() string {
	if p, _ := gpu.Protocol(sp.Protocol).Resolve(); !p.IsZero() {
		return p.Canonical()
	}
	return sp.Protocol
}

// cacheKey is the spec's identity on the admission fast path: every field
// that shapes the run id, none of the per-request knobs (Async, TimeoutMS).
// Two specs with equal cacheKeys map to the same run id, so the server can
// join repeat traffic onto a live job without recomputing the content
// address (a canonical-JSON marshal plus a SHA-256) per request.
func (sp *RunSpec) cacheKey() string {
	return fmt.Sprintf("%s|%s|%g|%d|c%d|n%d|b%d",
		sp.Protocol, sp.Benchmark, sp.Scale, sp.Seed, sp.Conc, sp.Cores, sp.CycleBudget)
}

// cell translates the spec into the harness cell it asks for; the cell's ID
// is the request's run id.
func (sp *RunSpec) cell() harness.Cell {
	return harness.Job{
		Proto:       gpu.Protocol(sp.Protocol),
		Bench:       sp.Benchmark,
		Conc:        sp.Conc,
		Cores:       sp.Cores,
		CycleBudget: sp.CycleBudget,
	}.Cell(sp.Scale, sp.Seed)
}

// baseID strips a run id back to its store key.
func baseID(id string) string {
	if i := strings.IndexByte(id, '-'); i >= 0 {
		return id[:i]
	}
	return id
}

// storeKeyLen is the length of a content address: a hex-encoded SHA-256.
const storeKeyLen = 64

// parseRunID validates the wire shape of a run id — a 64-char lowercase-hex
// store key, optionally followed by a "-b<cycles>" budget suffix whose
// digits parse as a uint64 — and returns the base store key. Ids arrive on
// URL paths and end up in filesystem paths and peer requests, so anything
// else (empty, truncated, over-long, non-hex, a mangled suffix) is rejected
// here and surfaces as a 404, never a panic or a path escape.
func parseRunID(id string) (base string, ok bool) {
	if len(id) < storeKeyLen {
		return "", false
	}
	key := id[:storeKeyLen]
	for i := 0; i < storeKeyLen; i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	rest := id[storeKeyLen:]
	if rest == "" {
		return key, true
	}
	if len(rest) < 3 || rest[0] != '-' || rest[1] != 'b' {
		return "", false
	}
	n, err := strconv.ParseUint(rest[2:], 10, 64)
	if err != nil || n == 0 {
		return "", false
	}
	return key, true
}
