package gpu_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/policy"
	"getm/internal/sim"
	"getm/internal/tm"
	"getm/internal/workloads"
)

// freshArmEnv makes the test binary a fresh arm: a child process that runs
// one arm of the test that started it and prints the arm's result after
// freshPrefix.
const (
	freshArmEnv = "GETM_FRESH_ARM"
	freshPrefix = "fresh-arm: "
)

// freshArm reports the arm this process runs as a child of runFresh; ok is
// false in the parent.
func freshArm() (arm string, ok bool) { return os.LookupEnv(freshArmEnv) }

// runFresh runs the named arm of the calling test on fresh machinery and
// returns its result. The holders that recycle machinery are process-wide
// and no collection empties them (DESIGN §6), so the arm runs in a child
// process of the test binary that runs nothing before it, and the child
// fails unless its run took nothing from a holder (reportFresh).
func runFresh(t *testing.T, arm string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	// Under the race detector a child would sleep a second on exit.
	gorace := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	cmd.Env = append(os.Environ(), freshArmEnv+"="+arm, "GORACE="+gorace)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fresh arm %q: %v\n%s", arm, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, freshPrefix); ok {
			return v
		}
	}
	t.Fatalf("fresh arm %q printed no result:\n%s", arm, out)
	return ""
}

// reportFresh is a fresh arm's last step: it fails if anything in this
// process took a recycled object, and otherwise prints v for runFresh.
func reportFresh(t *testing.T, v string) {
	t.Helper()
	if n := sim.Reused(); n != 0 {
		t.Fatalf("the fresh arm recycled %d objects", n)
	}
	fmt.Println(freshPrefix + v)
}

// smallKernel builds bench at smallParams for proto: fglock runs the lock
// kernel, every TM protocol the transactional one.
func smallKernel(t *testing.T, proto Protocol, bench string) *Kernel {
	t.Helper()
	variant := workloads.TM
	if proto == ProtoFGLock {
		variant = workloads.FGLock
	}
	k, err := workloads.Build(bench, variant, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// recycledConfig is smallConfig without Record, so a run hands back its
// memory image too.
func recycledConfig(p Protocol) Config {
	cfg := smallConfig(p)
	cfg.Record = false
	return cfg
}

// metricsJSON runs k and returns its canonical metrics JSON (what the store
// and the perf digests hash).
func metricsJSON(t *testing.T, cfg Config, k *Kernel) string {
	t.Helper()
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatalf("%s on %s: %v", k.Name, cfg.Protocol, err)
	}
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A run on recycled machinery is the run on fresh machinery. For every
// protocol a run accepts (each valid policy point, and fglock) on every
// workload: run the cell fresh (runFresh), run the same protocol on the next
// workload to leave dirty machinery of the same geometry in the holders,
// then run the cell again. The two runs of the cell must give
// byte-identical metrics, and the second must have recycled something.
func TestFreshVsRecycledIdentical(t *testing.T) {
	if arm, ok := freshArm(); ok {
		proto, bench, _ := strings.Cut(arm, " ")
		cfg := recycledConfig(Protocol(proto))
		reportFresh(t, metricsJSON(t, cfg, smallKernel(t, cfg.Protocol, bench)))
		return
	}
	protos := []Protocol{ProtoFGLock}
	for _, p := range policy.Valid() {
		protos = append(protos, ProtocolOf(p))
	}
	names := workloads.Names()
	for _, proto := range protos {
		cfg := recycledConfig(proto)
		for i, bench := range names {
			fresh := runFresh(t, string(proto)+" "+bench)
			metricsJSON(t, cfg, smallKernel(t, proto, names[(i+1)%len(names)]))
			before := sim.Reused()
			recycled := metricsJSON(t, cfg, smallKernel(t, proto, bench))
			if sim.Reused() == before {
				t.Errorf("%s on %s: the recycled run took nothing from a holder", proto, bench)
			}
			if recycled != fresh {
				t.Errorf("%s on %s: recycled run differs from fresh\nfresh:    %s\nrecycled: %s",
					proto, bench, fresh, recycled)
			}
		}
	}
}

// Under Record the memory image stays with the Result: later runs recycle
// their own arrays but never the pages of a FinalImage handed out, so it is
// unchanged after them and still replays.
func TestRecordKeepsFinalImage(t *testing.T) {
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
		res := runSmall(t, proto, "atm")
		want := res.FinalImage.Snapshot()
		for _, bench := range []string{"ht-h", "cl", "atm"} {
			metricsJSON(t, recycledConfig(proto), buildSmall(t, bench))
		}
		if res.FinalImage.Len() != want.Len() || !res.FinalImage.Equal(want) {
			t.Fatalf("%s: FinalImage changed after later runs", proto)
		}
		if err := tm.CheckSerializable(res.InitialImage, res.FinalImage, res.Committed); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

// One kernel runs on two machines at once (make race runs this under the
// race detector): gpu.Kernel's contract keeps it read-only, so both runs
// produce the same metrics.
func TestSharedKernelConcurrentRuns(t *testing.T) {
	k := buildSmall(t, "ht-h")
	for _, proto := range []Protocol{ProtoGETM, ProtoWarpTM} {
		cfg := recycledConfig(proto)
		var out [2][]byte
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := Run(cfg, k)
				if err != nil {
					t.Errorf("%s: %v", proto, err)
					return
				}
				out[i], err = json.Marshal(res.Metrics)
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if string(out[0]) != string(out[1]) {
			t.Fatalf("%s: concurrent runs of one kernel differ:\n%s\n%s", proto, out[0], out[1])
		}
	}
}
