package harness

import (
	"errors"
	"sync"
	"testing"

	"getm/internal/gpu"
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
	if n := r.InFlight(); n != 0 {
		t.Fatalf("%d simulations still in flight after the failure", n)
	}

	batch := []Job{
		{Proto: gpu.ProtoWarpTM, Bench: "nope", Conc: 1},
		{Proto: gpu.ProtoWarpTM, Bench: "nope", Conc: 2},
		{Proto: gpu.ProtoFGLock, Bench: "nope"},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 1},
	}
	if err := r.runParallel(batch, 2); err == nil {
		t.Fatal("runParallel with unknown benchmarks returned no error")
	}
	if !r.cached(batch[3].key()) {
		t.Fatal("the healthy job did not complete alongside the failing ones")
	}
	if n := r.InFlight(); n != 0 {
		t.Fatalf("%d simulations still in flight after the batch", n)
	}
}

// The batch kernel table builds each (bench, variant) kernel once however
// many jobs ask for it at once, hands every job the same kernel (or the same
// build error), and drops an entry when the last job that needs it finishes.
func TestKernelTableBuildsOncePerBatch(t *testing.T) {
	jobs := []Job{
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 1},
		{Proto: gpu.ProtoGETM, Bench: "ht-h", Conc: 2},
		{Proto: gpu.ProtoWarpTM, Bench: "ht-h", Conc: 1},
		{Proto: gpu.ProtoFGLock, Bench: "ht-h"},
		{Proto: gpu.ProtoGETM, Bench: "atm", Conc: 1},
		{Proto: gpu.ProtoEAPG, Bench: "atm", Conc: 4},
		{Proto: gpu.ProtoGETM, Bench: "nope", Conc: 1},
		{Proto: gpu.ProtoGETM, Bench: "nope", Conc: 2},
	}
	boom := errors.New("boom")
	var mu sync.Mutex
	builds := map[kernelKey]int{}
	kt := newKernelTable(jobs, func(j Job) (*gpu.Kernel, error) {
		mu.Lock()
		builds[kernelKeyOf(j)]++
		mu.Unlock()
		if j.Bench == "nope" {
			return nil, boom
		}
		return &gpu.Kernel{Name: j.Bench}, nil
	})

	got := make([]*gpu.Kernel, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			k, err := kt.kernel(j)
			if (j.Bench == "nope") != errors.Is(err, boom) {
				t.Errorf("%s: kernel error %v", j.key(), err)
			}
			got[i] = k
		}(i, j)
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
		t.Error("jobs of one (bench, variant) did not share one kernel")
	}

	for _, j := range jobs[:3] {
		kt.done(j)
	}
	if _, ok := kt.entries[kernelKeyOf(jobs[0])]; ok {
		t.Error("ht-h's TM kernel kept after its last job finished")
	}
	if len(kt.entries) != 3 {
		t.Errorf("%d entries left, want 3", len(kt.entries))
	}
	for _, j := range jobs[3:] {
		kt.done(j)
	}
	if len(kt.entries) != 0 {
		t.Errorf("%d entries left after the batch", len(kt.entries))
	}
}
