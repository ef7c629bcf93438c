# Developer entry points. `make check` is the gate every change must pass:
# it enforces the harness/engine race-safety guarantees (-race on the
# packages with concurrent paths) on top of the tier-1 build+test suite.

GO ?= go

.PHONY: check vet build test race short bench benchcmp trace-gate store-gate serve-gate par-gate load-gate obs-gate policy-gate cluster-gate perf-test bench-serve

check: vet build race short trace-gate store-gate serve-gate par-gate load-gate obs-gate policy-gate cluster-gate perf-test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Race-detect the concurrent layers: the memoizing runner and the event
# engine. Kept separate from `short` so the (slower) instrumented run only
# covers the packages with goroutines.
race:
	$(GO) test -race ./internal/harness/ ./internal/sim/

# The short-scale suite across every package.
short:
	$(GO) test -short ./...

# Trace overhead gate: tracing disabled must stay allocation-free on the
# per-access hot path (a nil Recorder is one pointer compare), the GETM and
# WarpTM access and commit paths, the SIMT core's transaction step and the
# event queue must stay allocation-free in steady state, and a traced
# end-to-end run must keep producing valid output from every machine layer.
trace-gate:
	$(GO) test -run 'TestGETMStepAllocs|TestWarpTMStepAllocs|TestCoreTxStepAllocs|TestTxLogHotPathAllocs|TestEmitDisabledZeroAlloc|TestEngineSteadyStateZeroAlloc' ./internal/core/ ./internal/warptm/ ./internal/simt/ ./internal/tm/ ./internal/trace/ ./internal/sim/
	$(GO) test -run 'TestTraceSmoke' ./cmd/getm-sim/

# Persistence & cancellation gate: stored metrics must round-trip exactly
# (bit-flips and truncation read as misses, never as data), a resumed sweep
# must simulate only the missing cells with byte-identical reports, and a
# context cancel must stop the engine within one chunk of cycles.
store-gate:
	$(GO) test -run 'TestStore|TestKey|TestLoadDir' ./internal/store/
	$(GO) test -run 'TestRunnerStore|TestResume|TestRunnerCanceled' ./internal/harness/
	$(GO) test -run 'TestCancelLatency|TestRunContext|TestCycleBudget|TestChunkedRun' ./internal/gpu/
	$(GO) test -run 'TestStoreResume' ./cmd/getm-sim/

# Serving gate: the HTTP service's concurrency guarantees under the race
# detector — load shedding (429 + Retry-After), readiness flips, graceful
# and forced drain, identical submissions collapsing onto one simulation,
# and ids resolving from the store across restarts.
serve-gate:
	$(GO) test -race ./internal/serve/ ./cmd/getm-serve/

# Parallel-engine gate: the sharded engine must match the serial reference
# event-for-event across thousands of randomized schedules, survive
# stop/resume at every window, and produce machine-level results identical
# across worker counts — all under the race detector. BENCH_parallel.json
# records the recorded timings (regenerate with `make bench-parallel`).
par-gate:
	$(GO) test -race -run 'TestSharded|TestEngineStopEveryEvent|TestEngineRunLimitClamp|TestReopenedGate|TestRolloverResumes' ./internal/sim/ ./internal/simt/ ./internal/gpu/
	$(GO) test -run 'TestShardClassIdentity' ./internal/harness/

test:
	$(GO) test ./...

# The benchmark's own smoke and unit tests (about 5 s). perf/ is a module of
# its own, so `go test ./...` at the root does not reach it.
perf-test:
	cd perf && $(GO) test .

# Micro-benchmarks: the event engine and the serial paper suite. The
# end-to-end benchmark with recorded numbers is `bash perf/run.sh` (see
# perf/README.md); the BENCH_*.json files are history from earlier hosts.
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngine' -benchmem ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkSuite' -benchtime 1x .

# Serve-path SLO gate: a sustained dedupe-heavy zipfian run against a live
# in-process server must hold the latency and shed-rate SLOs. Runs on every
# `make check`, so a serving-path regression fails the gate, not just a
# benchmark diff.
load-gate:
	$(GO) run ./cmd/getm-load -mix dedupe-heavy -duration 1500ms -clients 4 \
		-batch 16 -keys 8 -scale 0.02 -slo-p99 250ms -slo-shed 0.01 -out /dev/null

# Observability gate: spans disabled must cost zero allocations on the
# serving hot path (the nil-recorder pointer compare, stage accounting, and
# per-client counters are all alloc-gated); the live /metrics scrape must
# pass the Prometheus-conventions lint and pin its Content-Type; the
# X-Getm-Timings header must round-trip against /v1/runs/{id}/timings; the
# span recorder must lose nothing under -race; and getm-top must render a
# frame from a canned scrape.
obs-gate:
	$(GO) test -run 'TestSpanDisabledZeroAlloc|TestSpanEnabledEmitZeroAlloc|TestMetricsLintConventions|TestMetricsContentType|TestTimingsHeader|TestSpanExportFormats|TestSpanInternBounded' ./internal/serve/
	$(GO) test -race -run 'TestSpanRecorderConcurrentNoLoss' ./internal/serve/
	$(GO) test -run 'TestPrecomputeProgress|TestRunnerTraceSink' ./internal/harness/
	$(GO) test ./cmd/getm-top/

# Policy-matrix gate: the four paper protocols selected as matrix presets
# must stay bit-identical to name selection (golden fingerprints, seed
# differential, golden store addresses), every invalid combination must be
# rejected on all three surfaces (API errors.Is, CLI exit 2, serve 400),
# and the assembled lifecycle engine must stay race-clean.
policy-gate:
	$(GO) test -short ./internal/policy/
	$(GO) test -race -run 'TestPresetFingerprints|TestNonPresetPointsRun' ./internal/policy/
	$(GO) test -run 'TestKeyStabilityAcrossPolicyRedesign|TestKeyNonPresetPolicies' ./internal/store/
	$(GO) test -run 'TestPoliciesEnumeration|TestParsePolicy|TestRunInvalidPolicy|TestRunExperimentInvalidPolicy|TestRunPolicyPresetIdentity' .
	$(GO) test -run 'TestPolicyFlag|TestPolicyPresetSharesStoreRecord' ./cmd/getm-sim/
	$(GO) test -run 'TestPolicyGrid|TestPolicyFlagErrors' ./cmd/getm-sweep/
	$(GO) test -run 'TestSubmitPolicy|TestPolicyMetricsLabel' ./internal/serve/

# Cluster gate: the distributed sweep fabric under the race detector — an
# in-process 3-node cluster (coordinator + workers) must shard a full paper
# grid byte-identically to a single node, survive a worker killed mid-sweep
# without re-simulating completed cells, hedge slow owners, fail over from
# dead ones, steal from saturated ones, and sync store records across nodes;
# plus the flag-level end-to-end run through cmd/getm-serve.
cluster-gate:
	$(GO) test -race -run 'TestCluster' ./internal/serve/
	$(GO) test -race -run 'TestServeCluster' ./cmd/getm-serve/

# Serve-path throughput baselines (recorded in BENCH_serve.json): both
# traffic mixes against the per-request-write baseline server and the
# coalesced one, with the dedupe-heavy speedup as the headline number.
# -spans adds the server's own stage breakdown (server_*_ms) next to the
# client-observed latency in the coalesced arms.
bench-serve:
	$(GO) run ./cmd/getm-load -compare -spans -duration 3s -clients 4 -batch 16 \
		-keys 8 -scale 0.02 -out BENCH_serve.json

# Parallel-engine timings (recorded in BENCH_parallel.json).
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkShardedWindows' -benchtime 5x ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkRunEngines' -benchtime 3x ./internal/gpu/

# Compare two saved bench runs. Capture each side with e.g.
#   $(GO) test -run xxx -bench . -benchmem ./... > /tmp/old.txt
# then:
#   make benchcmp OLD=/tmp/old.txt NEW=/tmp/new.txt
# cmd/benchdiff is stdlib-only: it averages repeated runs per benchmark and
# prints ns/op, B/op, allocs/op deltas as percentages.
benchcmp:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchcmp OLD=<old.txt> NEW=<new.txt>"; exit 2; }
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)
