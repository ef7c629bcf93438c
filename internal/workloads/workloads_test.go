package workloads

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"getm/internal/gpu"
	"getm/internal/isa"
	"getm/internal/mem"
)

func TestAllBenchmarksBuildBothVariants(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.05
	for _, name := range Names() {
		for _, v := range []Variant{TM, FGLock} {
			k, err := Build(name, v, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(k.Programs) == 0 {
				t.Fatalf("%s: no programs", name)
			}
			for i, prog := range k.Programs {
				if err := prog.Validate(); err != nil {
					t.Fatalf("%s program %d invalid: %v", name, i, err)
				}
			}
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Build("nope", TM, DefaultParams()); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("unknown benchmark: err = %v, want ErrUnknownBenchmark", err)
	}
}

// A scale that is not finite and positive has no size to multiply by:
// Build rejects it for every benchmark rather than building some other size.
func TestBuildRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		for _, name := range Names() {
			k, err := Build(name, TM, Params{Scale: scale, Seed: 1})
			if !errors.Is(err, gpu.ErrInvalidConfig) || k != nil {
				t.Errorf("%s at scale %v: built a kernel (err %v), want ErrInvalidConfig", name, scale, err)
			} else if !strings.Contains(err.Error(), "scale") {
				t.Errorf("%s at scale %v: error %q does not name the scale", name, scale, err)
			}
		}
	}
}

func TestTMVariantHasTransactions(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.05
	for _, name := range Names() {
		k, _ := Build(name, TM, p)
		found := false
		for _, prog := range k.Programs {
			if slices.ContainsFunc(prog.Ops, func(op isa.Op) bool { return op.Kind == isa.TxBegin }) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s TM variant has no transactions", name)
		}
	}
}

func TestLockVariantHasNoTransactions(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.05
	for _, name := range Names() {
		k, _ := Build(name, FGLock, p)
		for _, prog := range k.Programs {
			for _, op := range prog.Ops {
				if op.Kind == isa.TxBegin || op.Kind == isa.TxCommit {
					t.Fatalf("%s lock variant contains %v", name, op.Kind)
				}
			}
		}
	}
}

func TestLockListsSorted(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.05
	for _, name := range Names() {
		k, _ := Build(name, FGLock, p)
		for _, prog := range k.Programs {
			for _, op := range prog.Ops {
				if op.Kind != isa.CritSection {
					continue
				}
				for lane, locks := range op.Locks {
					for i := 1; i < len(locks); i++ {
						if locks[i] < locks[i-1] {
							t.Fatalf("%s lane %d locks not ascending: %v", name, lane, locks)
						}
					}
				}
			}
		}
	}
}

// TestVerifiersAcceptSerialExecution runs every program with a serial
// reference executor (one lane at a time) and checks the verifier accepts
// the result — proving the verifiers encode what a correct (serializable)
// concurrent execution must produce. At scale 0.001 ATM has fewer accounts
// (131) than its hot set's 256; seeds 4 and 7 there drew hot accounts past
// the array before the hot set was clamped to it.
func TestVerifiersAcceptSerialExecution(t *testing.T) {
	for _, p := range []Params{{Scale: 0.05, Seed: 42}, {Scale: 0.001, Seed: 4}, {Scale: 0.001, Seed: 7}} {
		for _, name := range Names() {
			k, err := Build(name, TM, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Verify(serialExecute(k)); err != nil {
				t.Fatalf("%s at scale %v, seed %d: verifier rejected serial execution: %v", name, p.Scale, p.Seed, err)
			}
		}
	}
}

// serialExecute runs the kernel one lane at a time — lane order within a
// warp, warp order across programs, a trivially valid serialization — and
// returns the final memory image.
func serialExecute(k *gpu.Kernel) *mem.Image {
	img := mem.NewImage()
	if k.Init != nil {
		k.Init(img)
	}
	regs := make([][isa.NumRegs]uint64, isa.WarpWidth)
	var exec func(ops []isa.Op, mask isa.LaneMask)
	exec = func(ops []isa.Op, mask isa.LaneMask) {
		for _, op := range ops {
			m := op.EffMask(mask)
			for lane := 0; lane < isa.WarpWidth; lane++ {
				if !m.Bit(lane) {
					continue
				}
				switch op.Kind {
				case isa.Load:
					regs[lane][op.Dst] = img.Read(op.Addr[lane])
				case isa.Store:
					if op.UseImm {
						img.Write(op.Addr[lane], uint64(op.LaneImm(lane)))
					} else {
						img.Write(op.Addr[lane], regs[lane][op.Src])
					}
				case isa.MovImm:
					regs[lane][op.Dst] = uint64(op.LaneImm(lane))
				case isa.AddImm:
					regs[lane][op.Dst] = regs[lane][op.Src] + uint64(op.LaneImm(lane))
				case isa.CritSection:
					exec(op.Body, isa.LaneMask(1)<<uint(lane))
				}
			}
		}
	}
	for _, prog := range k.Programs {
		for lane := 0; lane < isa.WarpWidth; lane++ {
			exec(prog.Ops, isa.LaneMask(1)<<uint(lane))
		}
	}
	return img
}

func TestVerifiersCatchCorruption(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.05
	// ATM: break conservation.
	k, _ := Build("atm", TM, p)
	img := mem.NewImage()
	k.Init(img)
	img.Write(0x10000+128, 1) // clobber a balance
	if err := k.Verify(img); err == nil {
		t.Fatal("atm verifier accepted corrupted balances")
	}
	// HT: empty table with zero inserts reachable.
	k2, _ := Build("ht-h", TM, p)
	img2 := mem.NewImage()
	if err := k2.Verify(img2); err == nil || !strings.Contains(err.Error(), "reachable") {
		t.Fatalf("ht verifier accepted empty table: %v", err)
	}
}

// The ht verifier rejects a bucket link that does not point at a node (a
// node's payload word, an address below the nodes) and a node linked twice.
func TestHTVerifierRejectsBadLinks(t *testing.T) {
	k, err := Build("ht-h", TM, Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0's insert: it loads its bucket's head, then stores it into its
	// node's next word.
	var bucket, node uint64
	for i, op := range k.Programs[0].Ops {
		if op.Kind == isa.Load {
			bucket, node = op.Addr[0], k.Programs[0].Ops[i+1].Addr[0]
			break
		}
	}
	if bucket == 0 || node <= bucket {
		t.Fatalf("no insert found: bucket %#x node %#x", bucket, node)
	}
	good := serialExecute(k)
	if err := k.Verify(good); err != nil {
		t.Fatalf("serial execution rejected: %v", err)
	}
	for _, bad := range []struct {
		link uint64
		want string
	}{
		{node + 8, "not a node"},     // the node's payload word
		{bucket, "not a node"},       // below the nodes
		{node + 1<<40, "not a node"}, // past the last node
	} {
		img := good.Snapshot()
		img.Write(bucket, bad.link)
		if err := k.Verify(img); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("link %#x: verifier said %v, want %q", bad.link, err, bad.want)
		}
	}
	// Two buckets' chains meeting at one node.
	img := good.Snapshot()
	other := bucket + mem.WordBytes
	if img.Read(bucket) == img.Read(other) {
		other += mem.WordBytes
	}
	img.Write(other, img.Read(bucket))
	if err := k.Verify(img); err == nil || !strings.Contains(err.Error(), "linked twice") {
		t.Errorf("shared chain: verifier said %v, want a node linked twice", err)
	}
}

func TestScaleAffectsSize(t *testing.T) {
	small, _ := Build("ht-h", TM, Params{Scale: 0.1, Seed: 1})
	large, _ := Build("ht-h", TM, Params{Scale: 1, Seed: 1})
	if len(small.Programs) >= len(large.Programs) {
		t.Fatal("scale did not change program count")
	}
}

func TestStridePermute(t *testing.T) {
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	out := stridePermute(xs)
	seen := make([]bool, 100)
	for _, v := range out {
		if seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
	// Adjacent outputs should not be adjacent inputs.
	adjacent := 0
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1]+1 {
			adjacent++
		}
	}
	if adjacent > 5 {
		t.Fatalf("%d adjacent pairs survived permutation", adjacent)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, _ := Build("atm", TM, DefaultParams())
	b, _ := Build("atm", TM, DefaultParams())
	if len(a.Programs) != len(b.Programs) {
		t.Fatal("program counts differ")
	}
	for i := range a.Programs {
		if len(a.Programs[i].Ops) != len(b.Programs[i].Ops) {
			t.Fatalf("program %d op counts differ", i)
		}
		for j := range a.Programs[i].Ops {
			oa, ob := a.Programs[i].Ops[j], b.Programs[i].Ops[j]
			if oa.Kind != ob.Kind {
				t.Fatalf("op kind mismatch at %d/%d", i, j)
			}
			for l := 0; l < len(oa.Addr); l++ {
				if oa.Addr[l] != ob.Addr[l] {
					t.Fatalf("operand mismatch at %d/%d lane %d", i, j, l)
				}
			}
		}
	}
}
