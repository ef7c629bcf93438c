package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"getm/internal/gpu"
	"getm/internal/workloads"
)

// declared reads the metric names and units BENCHMARK.json gives each run
// mode.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryMetric runs every workload at test size in both modes and
// checks that the output names exactly the metrics BENCHMARK.json declares,
// each with its unit, with no failed op and no zero end-to-end value.
func TestSmokeEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				o := options{seed: 1, trace: traced, workdir: t.TempDir(), tiny: true}
				res, err := workloadFuncs[w](o)
				if err != nil {
					t.Fatal(err)
				}
				line := res.lastLine(traced)
				if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
					t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s trace=%v: no metric %s", w, traced, name)
					case m.Unit != unit:
						t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w, traced, name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s trace=%v: %s = %v", w, traced, name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, m.Value)
					}
				}
			})
		}
	}
}

// TestCorruptGoldenFails checks that a golden digest the run does not
// reproduce is a counted failure, and that the digests a run observed pass
// as goldens.
func TestCorruptGoldenFails(t *testing.T) {
	o := options{seed: 1, workdir: t.TempDir(), tiny: true}
	first, err := runHot(o, "eager-hot", gpu.ProtoGETM)
	if err != nil {
		t.Fatal(err)
	}
	if first.failed != 0 || len(first.digests) == 0 {
		t.Fatalf("baseline: failed=%d digests=%d", first.failed, len(first.digests))
	}
	o.goldens = first.digests
	if again, err := runHot(o, "eager-hot", gpu.ProtoGETM); err != nil || again.failed != 0 {
		t.Fatalf("observed digests as goldens: failed=%d err=%v", again.failed, err)
	}

	o.goldens = map[string]string{}
	for k, v := range first.digests {
		o.goldens[k] = strings.Repeat("0", len(v))
	}
	bad, err := runHot(o, "eager-hot", gpu.ProtoGETM)
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed == 0 || bad.failed != bad.attempted || bad.lastLine(false).Correct {
		t.Errorf("corrupted goldens: attempted=%d failed=%d correct=%v", bad.attempted, bad.failed, bad.lastLine(false).Correct)
	}
}

// TestRecordedGoldens reproduces one recorded golden per hot workload at
// full size, so a model change that needs its goldens re-recorded fails
// here first.
func TestRecordedGoldens(t *testing.T) {
	var goldens map[string]string
	if err := json.Unmarshal(goldenJSON, &goldens); err != nil {
		t.Fatal(err)
	}
	for name, proto := range map[string]gpu.Protocol{"eager-hot": gpu.ProtoGETM, "lazy-hot": gpu.ProtoWarpTM} {
		seed := cellSeed(1, 0)
		key := hotKey(name, "ht-h", hotScale, seed)
		want, ok := goldens[key]
		if !ok {
			t.Fatalf("goldens.json has no %q", key)
		}
		k, err := workloads.Build("ht-h", workloads.TM, workloads.Params{Scale: hotScale, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := gpu.Run(hotConfig(proto), k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := metricsDigest(res.Metrics); err != nil || got != want {
			t.Errorf("%s: digest %s (err %v), recorded %s", key, got, err, want)
		}
	}
}

// churnNode is a pointerful heap object, the kind the collector must trace.
type churnNode struct {
	next *churnNode
	pad  [4]uint64
}

var churnSink *churnNode

// TestProbeKeepsInjectedWork checks that the host probe times the host and
// not the code under test. A run alternates blocks of a fixed unit of work
// with blocks of the same unit plus injected work: as much work again, and
// allocation that leaves a collection of a live heap in flight when the
// unit returns, and goroutines that go on working after it, as a service's write-behind
// flusher does (the probe's quiesce waits for it, as serve-sweep's waits
// for the store flush). If either leftover ran beside the probes around an
// injected unit, they would read a slower host and scale the injected
// work away. Quiesced, the injected work moves the scaled time as much as
// the raw time.
func TestProbeKeepsInjectedWork(t *testing.T) {
	words := make([]uint64, 1<<16)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	// work sorts on two goroutines at once, as wide as the probe.
	work := func(wg *sync.WaitGroup, sorts int) {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]uint64, len(words))
				for i := 0; i < sorts; i++ {
					copy(buf, words)
					slices.Sort(buf)
				}
			}()
		}
	}
	var leftover sync.WaitGroup
	inject := func() {
		var wg sync.WaitGroup
		work(&wg, 3)
		var head *churnNode
		for i := 0; i < 1<<18; i++ {
			head = &churnNode{next: head}
		}
		churnSink = head
		wg.Wait()
		go runtime.GC()
		work(&leftover, 12) // outlasts a probe sample
	}
	probe := newHostProbe(2, func() error { leftover.Wait(); return nil })
	injected := func(i int) int { return i / 3 % 2 } // blocks of three units
	var times []float64
	run, err := probed(0, probe, 12, func(i int) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		work(&wg, 3)
		wg.Wait()
		if injected(i) == 1 {
			inject()
		}
		dt := time.Since(t0)
		times = append(times, ms(dt))
		return dt
	})
	if err != nil {
		t.Fatal(err)
	}
	var raw, scaled [2][]float64
	for i, s := range run.slow {
		raw[injected(i)] = append(raw[injected(i)], times[i])
		scaled[injected(i)] = append(scaled[injected(i)], times[i]/s)
	}
	rawRatio := quantile(raw[1], 0.5) / quantile(raw[0], 0.5)
	scaledRatio := quantile(scaled[1], 0.5) / quantile(scaled[0], 0.5)
	if rawRatio < 1.3 {
		t.Fatalf("injected work added only %.0f%% raw; the test needs a clear regression", (rawRatio-1)*100)
	}
	if math.Abs(scaledRatio/rawRatio-1) > 0.2 {
		t.Errorf("injected work: raw time x%.3f, scaled time x%.3f; the probe timed the leftover work", rawRatio, scaledRatio)
	}
}

func TestBucketTop(t *testing.T) {
	const listing = `File: perfbench
Type: cpu
Duration: 10s, Total samples = 20s (200.00%)
Showing nodes accounting for 20s, 100% of 20s total
      flat  flat%   sum%        cum   cum%
     8.00s 40.00% 40.00%      9.00s 45.00%  getm/internal/sim.(*Engine).heapPop
     3.00s 15.00% 55.00%      3.00s 15.00%  runtime.scanobject
     2.00s 10.00% 65.00%      2.00s 10.00%  getm/internal/core.(*VU).handle.func1 (inline)
     1.50s  7.50% 72.50%      1.50s  7.50%  gcWriteBarrier
     1.50s  7.50% 80.00%      1.50s  7.50%  internal/runtime/maps.(*Iter).Next
     1.00s  5.00% 85.00%      1.00s  5.00%  internal/runtime/syscall.Syscall6
     1.00s  5.00% 90.00%      1.00s  5.00%  net/http.(*conn).serve
     1.00s  5.00% 95.00%      1.00s  5.00%  getm/internal/area.GETMInventory
     0.50s  2.50% 97.50%      0.50s  2.50%  getm/internal/tm.Sort[go.shape.struct { A int }]
     0.50s  2.50%   100%      0.50s  2.50%  getm/internal/core.(*MetaTable).find
`
	got, err := bucketTop(listing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 40, "runtime": 30, "core": 12.5, "other": 15, "tm": 2.5}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, got[l], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	if _, err := bucketTop("no header here\n"); err == nil {
		t.Error("listing without a header: no error")
	}
}
