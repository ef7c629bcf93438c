package sim

import "testing"

// The event push/pop pair is the innermost loop of every simulation, so these
// benches are the engine-level perf baseline (run them with `make bench`; the
// end-to-end numbers come from the benchmark in perf/). Each bench also runs
// against the container/heap oracle so the queue's speedup stays measurable
// after future changes.

// mixedLoad schedules n self-rescheduling events with deterministic
// pseudorandom delays — the closest microbenchmark analogue of the timing
// model's traffic (a mix of short latencies and delay-0 wakeups).
func mixedLoad(schedule func(Cycle, func()), run func(Cycle) Cycle, n int) {
	rng := NewRNG(1)
	remaining := n
	var tick func()
	tick = func() {
		if remaining == 0 {
			return
		}
		remaining--
		schedule(Cycle(rng.Intn(8)), tick)
	}
	for i := 0; i < 32; i++ {
		schedule(Cycle(rng.Intn(8)), tick)
	}
	run(0)
}

// gpuMixDelay draws a delay shaped like the timing model's traffic: delay-0
// wakeups, 1-cycle VU/issue steps, 5-8-cycle crossbar hops, LLC hits (60),
// DRAM misses (~236), and the occasional retry backoff (64-8192).
func gpuMixDelay(rng *RNG) Cycle {
	switch x := rng.Intn(100); {
	case x < 20:
		return 0
	case x < 40:
		return 1
	case x < 70:
		return Cycle(5 + rng.Intn(4))
	case x < 85:
		return 60
	case x < 96:
		return Cycle(230 + rng.Intn(13))
	default:
		return Cycle(64) << rng.Intn(8)
	}
}

// gpuMixLoad keeps about 600 events pending, each rescheduling itself with a
// gpuMixDelay until n have run. Unlike mixedLoad's 0-7-cycle delays, which
// flatter any queue, it spreads events over hundreds of cycles and reaches
// past the wheel's horizon.
func gpuMixLoad(schedule func(Cycle, func()), run func(Cycle) Cycle, n int) {
	rng := NewRNG(1)
	remaining := n
	var tick func()
	tick = func() {
		if remaining == 0 {
			return
		}
		remaining--
		schedule(gpuMixDelay(rng), tick)
	}
	for i := 0; i < 600; i++ {
		schedule(gpuMixDelay(rng), tick)
	}
	run(0)
}

// sameCycleLoad is a pure same-cycle burst: runs of 16 delay-0 wakeups
// chained from a sparse clock. It is the one load the timing wheel serves
// slower than a dedicated same-cycle FIFO would (slab node and bucket links
// per event instead of a slice append); the hot simulation workloads never
// issue such bursts on their own.
func sameCycleLoad(schedule func(Cycle, func()), run func(Cycle) Cycle, n int) {
	remaining := n
	var burst func()
	burst = func() {
		for i := 0; i < 16 && remaining > 0; i++ {
			remaining--
			schedule(0, func() {})
		}
		if remaining > 0 {
			remaining--
			schedule(5, burst)
		}
	}
	schedule(1, burst)
	run(0)
}

func BenchmarkEngineMixed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		mixedLoad(e.Schedule, e.Run, 100000)
	}
}

func BenchmarkEngineMixedOracle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &oracleEngine{}
		mixedLoad(e.Schedule, e.Run, 100000)
	}
}

func BenchmarkEngineGPUMix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		gpuMixLoad(e.Schedule, e.Run, 100000)
	}
}

func BenchmarkEngineGPUMixOracle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &oracleEngine{}
		gpuMixLoad(e.Schedule, e.Run, 100000)
	}
}

func BenchmarkEngineSameCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		sameCycleLoad(e.Schedule, e.Run, 100000)
	}
}

func BenchmarkEngineSameCycleOracle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &oracleEngine{}
		sameCycleLoad(e.Schedule, e.Run, 100000)
	}
}
