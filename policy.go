package getm

import "getm/internal/policy"

// Policy selects one point in the protocol policy matrix: four orthogonal
// axes that, composed, span the paper's four protocols and eight more
// points the paper never measured. The zero value means "unset" and lets
// Options.Protocol's name-based lookup apply.
//
// The four paper protocols are presets: GETM(), WarpTM(), WarpTMEL(), and
// EAPG(). A preset behaves bit-identically to naming the protocol in
// Options.Protocol — same results, same content addresses in a result
// store. Policies() enumerates every implementable point; combinations
// outside that set fail with an error matching ErrInvalidPolicy.
type Policy struct {
	// VersionMgmt is VMEager (access-time write reservations, GETM
	// machinery) or VMLazy (redo-log buffering, WarpTM machinery).
	VersionMgmt string
	// ConflictDetect is CDEager (check every access as it happens) or
	// CDLazy (commit-time value validation).
	ConflictDetect string
	// Resolution is ResRequesterWins, ResFirstWriterWins, or
	// ResTimestampOrder.
	Resolution string
	// Arbitration is ArbLocal (commits decided locally, off the global
	// critical path) or ArbRing (globally serialized commit decisions).
	Arbitration string
}

// Axis values for Policy fields.
const (
	VMEager = "eager"
	VMLazy  = "lazy"

	CDEager = "eager"
	CDLazy  = "lazy"

	ResRequesterWins   = "requester"
	ResFirstWriterWins = "fww"
	ResTimestampOrder  = "timestamp"

	ArbLocal = "local"
	ArbRing  = "ring"
)

// GETM is the paper's contribution as a matrix preset: eager conflict
// detection with access-time write reservations, timestamp-ordered
// resolution, and commits off the critical path.
func GETM() Policy { return fromInternal(policy.GETM()) }

// WarpTM is the lazy-lazy baseline preset: value-based validation in
// global commit order.
func WarpTM() Policy { return fromInternal(policy.WarpTM()) }

// WarpTMEL is the idealized eager-lazy WarpTM variant preset.
func WarpTMEL() Policy { return fromInternal(policy.WarpTMEL()) }

// EAPG is the idealized EarlyAbort/Pause-n-Go baseline preset:
// first-writer-wins via commit-signature broadcasts over WarpTM machinery.
func EAPG() Policy { return fromInternal(policy.EAPG()) }

// Policies enumerates the implementable points of the matrix (12 of the 24
// syntactic combinations), the four presets first. Every returned Policy
// passes Validate; every combination not in the list fails it.
func Policies() []Policy {
	var out []Policy
	for _, ip := range policy.Valid() {
		out = append(out, fromInternal(ip))
	}
	return out
}

// ParsePolicy reads a policy from its textual form: a preset name ("getm",
// "warptm", "warptm-el", "eapg") or a comma-separated axis list such as
// "vm=eager,cd=eager,res=timestamp,arb=local" (any order; omitted axes
// default to the machinery's native choice). Errors match ErrInvalidPolicy.
func ParsePolicy(s string) (Policy, error) {
	ip, err := policy.Parse(s)
	if err != nil {
		return Policy{}, err
	}
	return fromInternal(ip), nil
}

// IsZero reports whether no axis has been set.
func (p Policy) IsZero() bool { return p == Policy{} }

// String renders the preset name when p is one of the four paper protocols
// and the canonical "vm=…,cd=…,res=…,arb=…" tuple otherwise.
func (p Policy) String() string { return p.internal().String() }

// Validate reports nil for implementable points and an error matching
// ErrInvalidPolicy (with the reason) otherwise.
func (p Policy) Validate() error { return p.internal().Validate() }

func (p Policy) internal() policy.Policy {
	return policy.Policy{
		VersionMgmt:    policy.VersionMgmt(p.VersionMgmt),
		ConflictDetect: policy.ConflictDetect(p.ConflictDetect),
		Resolution:     policy.Resolution(p.Resolution),
		Arbitration:    policy.Arbitration(p.Arbitration),
	}
}

func fromInternal(ip policy.Policy) Policy {
	return Policy{
		VersionMgmt:    string(ip.VersionMgmt),
		ConflictDetect: string(ip.ConflictDetect),
		Resolution:     string(ip.Resolution),
		Arbitration:    string(ip.Arbitration),
	}
}
