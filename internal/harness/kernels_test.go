package harness

import (
	"errors"
	"sync"
	"testing"

	"getm/internal/gpu"
	"getm/internal/workloads"
)

// A kernel that cannot be built is the job's error, on a single run and in
// a batch: nothing panics, the failure is cached like any deterministic
// one, and no in-flight entry is left for a later caller to wait on.
func TestUnbuildableKernelIsAnError(t *testing.T) {
	r := NewRunner(0.05)
	bad := Job{Proto: gpu.ProtoGETM, Bench: "nope", Conc: 1}
	_, err := r.RunE(bad)
	if err == nil {
		t.Fatal("RunE on an unknown benchmark returned no error")
	}
	if _, again := r.RunE(bad); again != err {
		t.Fatalf("second RunE = %v, want the cached %v", again, err)
	}
	if n := inFlight(r); n != 0 {
		t.Fatalf("%d simulations still in flight after the failure", n)
	}

	batch := cellsOf(r, []Job{
		{Proto: gpu.ProtoWarpTM, Bench: "nope", Conc: 1},
		{Proto: gpu.ProtoWarpTM, Bench: "nope", Conc: 2},
		{Proto: gpu.ProtoFGLock, Bench: "nope"},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 1},
	})
	if err := r.RunCells(batch, 2); err == nil {
		t.Fatal("RunCells with unknown benchmarks returned no error")
	}
	if !r.cached(batch[3].ID()) {
		t.Fatal("the healthy cell did not complete alongside the failing ones")
	}
	if n := inFlight(r); n != 0 {
		t.Fatalf("%d simulations still in flight after the batch", n)
	}
}

// The batch kernel table builds each (bench, variant, scale, seed) kernel
// once however many cells ask for it at once, hands every cell the same
// kernel (or the same build error), and drops an entry when the last cell
// that needs it finishes.
func TestKernelTableBuildsOncePerBatch(t *testing.T) {
	cells := cellsOf(NewRunner(0.05), []Job{
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 1},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 2},
		{Proto: gpu.ProtoWarpTM, Bench: "ht-h", Conc: 1},
		{Proto: gpu.ProtoFGLock, Bench: "ht-h"},
		{Proto: gpu.ProtoGETM, Bench: "atm", Conc: 1},
		{Proto: gpu.ProtoEAPG, Bench: "atm", Conc: 4},
		{Proto: gpu.ProtoGETM, Bench: "nope", Conc: 1},
		{Proto: gpu.ProtoGETM, Bench: "nope", Conc: 2},
	})
	boom := errors.New("boom")
	var mu sync.Mutex
	builds := map[kernelKey]int{}
	kt := newKernelTable(cells, func(c Cell) (*gpu.Kernel, error) {
		mu.Lock()
		builds[kernelKeyOf(c)]++
		mu.Unlock()
		if c.Bench == "nope" {
			return nil, boom
		}
		return &gpu.Kernel{Name: c.Bench}, nil
	})

	got := make([]*gpu.Kernel, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			k, err := kt.kernel(c)
			if (c.Bench == "nope") != errors.Is(err, boom) {
				t.Errorf("%s: kernel error %v", c.Desc, err)
			}
			got[i] = k
		}(i, c)
	}
	wg.Wait()
	for key, n := range builds {
		if n != 1 {
			t.Errorf("%v built %d times, want 1", key, n)
		}
	}
	if len(builds) != 4 {
		t.Errorf("%d kernels built, want 4 (ht-h TM, ht-h FGLock, atm TM, nope TM)", len(builds))
	}
	if got[0] != got[1] || got[0] != got[2] || got[4] != got[5] || got[0] == got[3] {
		t.Error("cells of one (bench, variant) did not share one kernel")
	}

	for _, c := range cells[:3] {
		kt.done(c)
	}
	if _, ok := kt.entries[kernelKeyOf(cells[0])]; ok {
		t.Error("ht-h's TM kernel kept after its last cell finished")
	}
	if len(kt.entries) != 3 {
		t.Errorf("%d entries left, want 3", len(kt.entries))
	}
	for _, c := range cells[3:] {
		kt.done(c)
	}
	if len(kt.entries) != 0 {
		t.Errorf("%d entries left after the batch", len(kt.entries))
	}
}

// Cell.Validate is the one check of whether a cell can run: the benchmark
// and scale as workloads.Validate checks them, the machine as
// gpu.Config.Validate does. Job.Config sets a nonzero override as given, so
// a negative one reaches the machine check instead of running the default.
func TestCellValidate(t *testing.T) {
	if err := (Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}).Cell(0.1, 42).Validate(); err != nil {
		t.Fatalf("paper cell: %v", err)
	}
	for name, c := range map[string]struct {
		cell Cell
		want error
	}{
		"unknown bench":    {Job{Proto: gpu.ProtoGETM, Bench: "nope"}.Cell(0.1, 42), workloads.ErrUnknownBenchmark},
		"scale 0":          {Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}.Cell(0, 42), gpu.ErrInvalidConfig},
		"scale -1":         {Job{Proto: gpu.ProtoGETM, Bench: "ht-h"}.Cell(-1, 42), gpu.ErrInvalidConfig},
		"cores -1":         {Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Cores: -1}.Cell(0.1, 42), gpu.ErrInvalidConfig},
		"conc -1":          {Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: -1}.Cell(0.1, 42), gpu.ErrInvalidConfig},
		"meta entries -1":  {Job{Proto: gpu.ProtoGETM, Bench: "ht-h", MetaEntries: -1}.Cell(0.1, 42), gpu.ErrInvalidConfig},
		"granularity -8":   {Job{Proto: gpu.ProtoGETM, Bench: "ht-h", Granularity: -8}.Cell(0.1, 42), gpu.ErrInvalidConfig},
		"unknown protocol": {Job{Proto: "bogus", Bench: "ht-h"}.Cell(0.1, 42), gpu.ErrUnknownProtocol},
	} {
		if err := c.cell.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}
