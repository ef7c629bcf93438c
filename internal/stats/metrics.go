package stats

import "math"

// Metrics is the per-run measurement snapshot consumed by the experiment
// harness. All cycle quantities are in interconnect-clock cycles.
type Metrics struct {
	// TotalCycles is the wall-clock length of the run.
	TotalCycles uint64

	// TxExecCycles is the total time warps spent executing transactional
	// code, including retried attempts, summed across all warps.
	TxExecCycles uint64
	// TxWaitCycles is the total time warps spent waiting to start or finish
	// transactions: blocked on the concurrency throttle, waiting for the
	// commit/validation round trips, waiting for diverged same-warp threads,
	// and backoff after aborts.
	TxWaitCycles uint64

	// Commits and Aborts count thread-level transactions.
	Commits uint64
	Aborts  uint64
	// AbortsByCause breaks Aborts down (war, waw-raw, intra-warp, stall-full,
	// early-abort, validation).
	AbortsByCause Counters

	// XbarUpBytes/XbarDownBytes count interconnect payload traffic.
	XbarUpBytes   uint64
	XbarDownBytes uint64

	// SilentCommits counts read-only transactions committed via the TCD
	// filter (WarpTM) without validation round trips.
	SilentCommits uint64

	// MetaAccessCycles is the distribution of metadata-table access latency
	// per request at GETM validation units (Fig 13).
	MetaAccessCycles Hist

	// StallBufMaxOccupancy is the maximum number of queued addresses across
	// all stall buffers at any instant (Fig 15); StallBufPerAddr averages the
	// number of requests queued per address (Fig 16).
	StallBufMaxOccupancy uint64
	StallBufPerAddr      Accum

	// Extra holds protocol-specific counters (overflow insertions, rollovers,
	// pauses, TCD hits, cuckoo evictions, ...).
	Extra Counters

	// Truncated marks a partial snapshot from a run cut short (context
	// cancellation or cycle budget): tallies cover only the run's first
	// TotalCycles cycles and end-of-run verification was skipped. The flag
	// is sticky under Merge (any truncated input taints the aggregate), and
	// consumers that require complete runs — the on-disk store, the
	// accounting invariants — refuse truncated metrics outright.
	Truncated bool
}

// NewMetrics returns an initialized Metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		AbortsByCause:    Counters{},
		Extra:            Counters{},
		MetaAccessCycles: Hist{Buckets: make([]uint64, 64)},
	}
}

// Merge folds other into m: counters add, histograms merge bucket-wise,
// maxima take the larger value, and Truncated ORs (a merge containing any
// partial input is itself partial). Merging is associative and commutative
// (up to float rounding in the Accum sums), so the metrics of many runs can
// be totalled in any order — see TestMetricsMergeAssociative.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	m.TotalCycles += other.TotalCycles
	m.TxExecCycles += other.TxExecCycles
	m.TxWaitCycles += other.TxWaitCycles
	m.Commits += other.Commits
	m.Aborts += other.Aborts
	m.XbarUpBytes += other.XbarUpBytes
	m.XbarDownBytes += other.XbarDownBytes
	m.SilentCommits += other.SilentCommits
	if m.AbortsByCause == nil {
		m.AbortsByCause = Counters{}
	}
	m.AbortsByCause.Merge(other.AbortsByCause)
	if m.Extra == nil {
		m.Extra = Counters{}
	}
	m.Extra.Merge(other.Extra)
	m.MetaAccessCycles.Merge(other.MetaAccessCycles)
	if other.StallBufMaxOccupancy > m.StallBufMaxOccupancy {
		m.StallBufMaxOccupancy = other.StallBufMaxOccupancy
	}
	m.StallBufPerAddr.Merge(other.StallBufPerAddr)
	m.Truncated = m.Truncated || other.Truncated
}

// TxCycles returns exec + wait, the paper's "total tx cycles".
func (m *Metrics) TxCycles() uint64 { return m.TxExecCycles + m.TxWaitCycles }

// XbarBytes returns total crossbar traffic in both directions.
func (m *Metrics) XbarBytes() uint64 { return m.XbarUpBytes + m.XbarDownBytes }

// AbortsPer1KCommits returns the paper's Table IV abort metric. A run that
// aborted without ever committing has an infinite rate, reported as +Inf
// (rendered "n/a" by report tables) — previously it read as 0, making an
// all-abort cell indistinguishable from a perfect one.
func (m *Metrics) AbortsPer1KCommits() float64 {
	if m.Commits == 0 {
		if m.Aborts > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return float64(m.Aborts) * 1000 / float64(m.Commits)
}
