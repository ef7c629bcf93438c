# Developer entry points. `make check` is the gate every change must pass:
# it enforces the harness/engine race-safety guarantees (-race on the
# packages with concurrent paths) on top of the tier-1 build+test suite.

GO ?= go

.PHONY: check vet build test race short bench benchcmp trace-gate store-gate serve-gate load-gate obs-gate policy-gate cluster-gate perf-test suite-output

check: vet build race short trace-gate store-gate serve-gate load-gate obs-gate policy-gate cluster-gate perf-test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Race-detect the concurrent layers: the memoizing runner, the event engine,
# the SIMT core and the machine, whose array recyclers are shared by
# concurrent runs (one kernel also runs on two machines at once here). Kept
# separate from `short` so the (slower) instrumented run only covers the
# packages with goroutines or process-wide pools.
race:
	$(GO) test -race ./internal/harness/ ./internal/sim/ ./internal/simt/ ./internal/gpu/

# The short-scale suite across every package.
short:
	$(GO) test -short ./...

# Trace overhead gate: tracing disabled must stay allocation-free on the
# per-access hot path (a nil Recorder is one pointer compare), the GETM and
# WarpTM access and commit paths, the SIMT core's transaction step and the
# event queue must stay allocation-free in steady state, a second run must
# reuse the first run's machine arrays, and a traced end-to-end run must
# keep producing valid output from every machine layer.
trace-gate:
	$(GO) test -run 'TestGETMStepAllocs|TestWarpTMStepAllocs|TestCoreTxStepAllocs|TestTxLogHotPathAllocs|TestEmitDisabledZeroAlloc|TestEngineSteadyStateZeroAlloc|TestSecondRunReusesMachineArrays' ./internal/core/ ./internal/warptm/ ./internal/simt/ ./internal/tm/ ./internal/trace/ ./internal/sim/ ./internal/gpu/
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
# latency summaries must keep their resolution (a 2 s request reads 2 s, a
# 1.5 ms run reads 1.5 ms); the span recorder must lose nothing under -race;
# and getm-top must render a frame from a canned scrape.
obs-gate:
	$(GO) test -run 'TestSpanDisabledZeroAlloc|TestSpanEnabledEmitZeroAlloc|TestMetricsLintConventions|TestMetricsContentType|TestTimingsHeader|TestSpanExportFormats|TestSpanInternBounded|TestLatencySummaryResolution' ./internal/serve/
	$(GO) test -race -run 'TestSpanRecorderConcurrentNoLoss' ./internal/serve/
	$(GO) test -run 'TestPrecomputeProgress|TestRunnerTraceSink' ./internal/harness/
	$(GO) test ./cmd/getm-top/

# Policy-matrix gate: a run names its protocol once, in gpu.Config.Protocol
# (a preset name, fglock, or "policy:<tuple>" from gpu.ProtocolOf), so every
# spelling of every point at every edge — API options, runner pin, serve
# spec, CLI flag — must give one store key; the four paper protocols must
# stay bit-identical as presets (golden fingerprints, golden store
# addresses); every point, and fglock, must give the same metrics on
# recycled machine arrays as on fresh ones; unknown protocols and invalid
# combinations must be rejected on all three surfaces (API errors.Is, CLI
# exit 2, serve 400), never with a panic; benchdiff -policy must find a
# point's cells in both store description forms; and the assembled
# lifecycle engine must stay race-clean.
policy-gate:
	$(GO) test -short ./internal/policy/
	$(GO) test -race -run 'TestPresetFingerprints|TestNonPresetPointsRun' ./internal/policy/
	$(GO) test -run 'TestKeyStabilityAcrossPolicyRedesign|TestKeyNonPresetPolicies' ./internal/store/
	$(GO) test -run 'TestUnknownProtocol|TestProtocolOfRoundTrip|TestFreshVsRecycledIdentical' ./internal/gpu/
	$(GO) test -run 'TestPoliciesEnumeration|TestParsePolicy|TestRunInvalidPolicy|TestRunExperimentInvalidPolicy|TestRunPolicyPresetIdentity|TestProtocolIdentityAcrossEdges' .
	$(GO) test -run 'TestPolicyFlag|TestPolicyPresetSharesStoreRecord|TestUnknownProtoFlag' ./cmd/getm-sim/
	$(GO) test -run 'TestPolicyGrid|TestPolicyFlagErrors' ./cmd/getm-sweep/
	$(GO) test -run 'TestSubmitPolicy|TestPolicyMetricsLabel' ./internal/serve/
	$(GO) test -run 'TestMatchesPolicy|TestParseStoreDirPolicy' ./cmd/benchdiff/

# Cluster gate: the distributed sweep fabric under the race detector — an
# in-process 3-node cluster (coordinator + workers) must shard a full paper
# grid byte-identically to a single node, survive a worker killed mid-sweep
# without re-simulating completed cells, hedge slow owners, fail over from
# dead ones, steal from saturated ones, and sync store records across nodes;
# plus the flag-level end-to-end run through cmd/getm-serve.
cluster-gate:
	$(GO) test -race -run 'TestCluster' ./internal/serve/
	$(GO) test -race -run 'TestServeCluster' ./cmd/getm-serve/

# Regenerate full_suite_output.txt, the raw reproduction-scale report that
# EXPERIMENTS.md cites: getm-bench's stdout for every experiment (about 40 s
# on a 2-core host; progress goes to stderr). The file is replaced only when
# the run succeeds.
suite-output:
	$(GO) run ./cmd/getm-bench -scale 1.0 -workers 2 all > full_suite_output.txt.tmp
	mv full_suite_output.txt.tmp full_suite_output.txt

# Compare two saved bench runs. Capture each side with e.g.
#   $(GO) test -run xxx -bench . -benchmem ./... > /tmp/old.txt
# then:
#   make benchcmp OLD=/tmp/old.txt NEW=/tmp/new.txt
# cmd/benchdiff is stdlib-only: it averages repeated runs per benchmark and
# prints ns/op, B/op, allocs/op deltas as percentages.
benchcmp:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchcmp OLD=<old.txt> NEW=<new.txt>"; exit 2; }
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)
