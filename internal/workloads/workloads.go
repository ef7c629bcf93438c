// Package workloads generates the TM benchmarks of the paper's Table III —
// hash-table population at three contention levels (HT-H/M/L), bank
// transfers (ATM), cloth physics (CL and the tx-optimized CLto), Barnes-Hut
// octree build (BH), CudaCuts image segmentation (CC), and Apriori data
// mining (AP) — as synthetic kernels with the same access patterns,
// contention structure, and transactional/non-transactional mix.
//
// Each benchmark builds in two variants: transactions (txbegin/txcommit
// regions) and hand-tuned fine-grained locks (CritSection ops acquiring the
// same data's lock words in ascending order). Every kernel carries a
// semantic verifier (chain integrity, balance conservation, counter sums)
// that the gpu runner checks after execution — an end-to-end atomicity test.
//
// Sizes are scaled down from the paper (whose grids run millions of cycles
// in GPGPU-Sim) by a factor that preserves the insert:table-size and
// thread:data ratios that determine contention; Params.Scale adjusts them
// further.
package workloads

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"getm/internal/gpu"
	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
)

// Variant selects the synchronization flavor of a kernel.
type Variant int

// Kernel variants.
const (
	// TM builds the transactional version.
	TM Variant = iota
	// FGLock builds the fine-grained-lock version.
	FGLock
)

// Params tune workload generation.
type Params struct {
	// Scale multiplies thread and data counts (1.0 = this package's
	// defaults; see the package comment). It must be finite and positive.
	Scale float64
	// Seed drives operand generation.
	Seed uint64
}

// DefaultParams returns Scale 1 with a fixed seed.
func DefaultParams() Params { return Params{Scale: 1, Seed: 42} }

func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < isa.WarpWidth {
		v = isa.WarpWidth
	}
	return v
}

// Names lists the benchmarks in the paper's order.
func Names() []string {
	return []string{"ht-h", "ht-m", "ht-l", "atm", "cl", "clto", "bh", "cc", "ap"}
}

// ErrUnknownBenchmark is wrapped by Validate's error for a name not in Names.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// Validate reports whether Build accepts the benchmark name and params.
func Validate(name string, p Params) error {
	if !slices.Contains(Names(), name) {
		return fmt.Errorf("%w %q (want one of %v)", ErrUnknownBenchmark, name, Names())
	}
	return p.Validate()
}

// Validate reports whether the scale is finite and positive, wrapping
// gpu.ErrInvalidConfig if not: any other has no size to multiply by.
func (p Params) Validate() error {
	if !(p.Scale > 0) || math.IsInf(p.Scale, 1) {
		return fmt.Errorf("%w: scale %v is not finite and positive", gpu.ErrInvalidConfig, p.Scale)
	}
	return nil
}

// Build constructs the named benchmark, or returns Validate's error.
func Build(name string, v Variant, p Params) (*gpu.Kernel, error) {
	if err := Validate(name, p); err != nil {
		return nil, fmt.Errorf("workloads: %w", err)
	}
	switch name {
	case "ht-h":
		return buildHashTable(name, v, p, 1), nil
	case "ht-m":
		return buildHashTable(name, v, p, 10), nil
	case "ht-l":
		return buildHashTable(name, v, p, 100), nil
	case "atm":
		return buildATM(name, v, p), nil
	case "cl":
		return buildCloth(name, v, p, false), nil
	case "clto":
		return buildCloth(name, v, p, true), nil
	case "bh":
		return buildBarnesHut(name, v, p), nil
	case "cc":
		return buildCudaCuts(name, v, p), nil
	case "ap":
		return buildApriori(name, v, p), nil
	}
	panic("workloads: " + name + " is in Names but has no builder")
}

// --- generation helpers ---

// region is a bump allocator carving disjoint address regions.
type region struct{ next uint64 }

func newRegion() *region { return &region{next: 0x10000} }

// array reserves n words aligned to an LLC line and returns the base.
func (r *region) array(n int) uint64 {
	const line = 128
	r.next = (r.next + line - 1) &^ uint64(line-1)
	base := r.next
	r.next += uint64(n) * mem.WordBytes
	return base
}

// laneOperands is one thread's operand stream; all threads of a kernel share
// the same op skeleton. Operands live in indexed slots (each workload defines
// its own slot constants, resolved at program-build time), so gathering a
// warp's operands is slice indexing rather than per-lookup map hashing.
type laneOperands struct {
	addrs []uint64 // indexed by workload-specific address slots
	imms  []int64  // indexed by workload-specific immediate slots
	depth int      // BH: path depth
}

// padWarps rounds a thread count up to whole warps.
func padWarps(threads int) int {
	w := (threads + isa.WarpWidth - 1) / isa.WarpWidth
	return w * isa.WarpWidth
}

// perLane gathers an address operand slot across a warp's lanes.
func perLane(lanes []laneOperands, slot int) []uint64 {
	out := make([]uint64, isa.WarpWidth)
	for i := range lanes {
		out[i] = lanes[i].addrs[slot]
	}
	return out
}

// perLaneImm gathers an immediate operand slot across lanes.
func perLaneImm(lanes []laneOperands, slot int) []int64 {
	out := make([]int64, isa.WarpWidth)
	for i := range lanes {
		out[i] = lanes[i].imms[slot]
	}
	return out
}

// sortedPair returns (lo, hi) of two lock addresses.
func sortedPair(a, b uint64) []uint64 {
	s := []uint64{a, b}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rngFor builds the workload RNG.
func rngFor(p Params, salt uint64) *sim.RNG {
	return sim.NewRNG(p.Seed).Fork(salt)
}

// stridePermute reorders xs by a fixed stride coprime to its length, so that
// originally adjacent elements land in different warps (the interleaving a
// hand-tuned GPU kernel would apply to spread conflicting work).
func stridePermute[T any](xs []T) []T {
	n := len(xs)
	if n < 2 {
		return xs
	}
	stride := 97
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]T, 0, n)
	idx := 0
	for i := 0; i < n; i++ {
		out = append(out, xs[idx])
		idx = (idx + stride) % n
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
