# Developer entry points. `make check` is the gate every change must pass:
# it enforces the harness/engine race-safety guarantees (-race on the
# packages with concurrent paths) on top of the tier-1 build+test suite.

GO ?= go

.PHONY: check vet build test race short bench benchcmp trace-gate store-gate serve-gate load-gate obs-gate policy-gate cluster-gate perf-test suite-output loc

check: vet build race short trace-gate store-gate serve-gate load-gate obs-gate policy-gate cluster-gate perf-test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Race-detect the concurrent layers: the memoizing runner and getm-sweep,
# whose local sweeps run on the runner's worker pool, the event engine and
# its holders, the SIMT core and the machine, whose holders are shared by
# concurrent runs (one kernel also runs on two machines at once here, and
# the warm-run and array-reuse gates run too). Kept separate from `short`
# so the (slower) instrumented run only covers the packages with
# goroutines or process-wide holders.
race:
	$(GO) test -race ./internal/harness/ ./cmd/getm-sweep/ ./internal/sim/ ./internal/simt/ ./internal/gpu/

# The short-scale suite across every package.
short:
	$(GO) test -short ./...

# Trace overhead and turnover gate: tracing disabled must stay
# allocation-free on the per-access hot path (a nil Recorder is one pointer
# compare); the GETM, WarpTM (pipelined commits included) and EAPG access
# and commit paths, the SIMT core's transaction, critical-section and
# store-then-load steps and the event queue must stay allocation-free in
# steady state, and the memory image's Read must inline; a reset
# engine must run as a new one; holders must keep what they are given, and
# no more objects than were wanted at once, and stocked free lists must
# come back whole; runs on recycled machinery must match runs on fresh
# machinery (each fresh arm in a child process that recycled nothing), also
# after a run cut short; a second run must reuse a fresh first run's machine
# arrays, a warm run must allocate fewer than 1,000 objects after two
# collections, and a finished machine must be garbage, also while its
# Result.Trace is kept (DESIGN §6); and a traced end-to-end run must keep
# producing valid output from every machine layer.
trace-gate:
	$(GO) test -run 'TestGETMStepAllocs|TestWarpTMStepAllocs|TestEAPGStepAllocs|TestCoreTxStepAllocs|TestCoreLockStepAllocs|TestCoreStoreLoadStepAllocs|TestTxLogHotPathAllocs|TestEmitDisabledZeroAlloc|TestEngineSteadyStateZeroAlloc|TestEngineResetMatchesNew|TestHolder|TestRecycler|TestStock|TestFreshVsRecycledIdentical|TestCutShortRunLeavesNothingBehind|TestSecondRunReusesMachineArrays|TestWarmRunAllocs|TestFinishedMachineIsGarbage' ./internal/core/ ./internal/warptm/ ./internal/eapg/ ./internal/simt/ ./internal/tm/ ./internal/trace/ ./internal/sim/ ./internal/gpu/
	$(GO) build -gcflags=-m ./internal/mem 2>&1 | grep -q 'can inline (\*Image).Read$$'
	$(GO) test -run 'TestTraceSmoke' ./cmd/getm-sim/

# Persistence & cancellation gate: every gpu.Config field must be either
# keyed or on the key's non-result list (a reflective walk), the store keys
# of every machine an edge builds must hold (a golden table), a key must
# cost no more than 8 objects and 1,752 B and a cached read less than one
# key (the runner keys each job once), stored metrics must round-trip
# exactly (bit-flips and truncation read as misses, never as data), a
# resumed sweep must simulate only the missing cells with byte-identical
# reports (getm-bench and getm-sweep resume through the runner), each cell
# must simulate once however its jobs spell it, a context cancel must stop
# the engine within one chunk of cycles and hand its partial metrics (and
# trace) back through the runner, getm.RunContext and getm-sim without
# caching them, and a failed store write must print one warning on every
# CLI.
store-gate:
	$(GO) test -run 'TestStore|TestKey|TestLoadDir' ./internal/store/
	$(GO) test -run 'TestRunnerStore|TestResume|TestRunnerCanceled|TestPrecomputeCellIdentity|TestGoldenStoreAddresses|TestCachedRunKeysOnce' ./internal/harness/
	$(GO) test -run 'TestCancelLatency|TestRunContext|TestCycleBudget|TestChunkedRun' ./internal/gpu/
	$(GO) test -run 'TestRunContextCanceledMidRun|TestRunContextPreCanceled' .
	$(GO) test -run 'TestStoreResume|TestTruncatedNoteOnStderr|TestTraceWrittenOnTimeout|TestStoreWriteFailureWarns' ./cmd/getm-sim/
	$(GO) test -run 'TestStdoutByteIdenticalAcrossModes|TestStoreWriteFailureWarns' ./cmd/getm-sweep/
	$(GO) test -run 'TestStoreWriteFailureWarns' ./cmd/getm-bench/

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
		-batch 16 -keys 8 -scale 0.02 -slo-p99 250ms -slo-shed 0.01 >/dev/null

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
# addresses, also for every machine an edge builds); every point, and
# fglock, must give the same metrics on recycled machinery as on fresh, also
# after a run cut short; unknown protocols, invalid combinations and
# machines outside gpu.Config.Validate's domain (and unknown benchmarks and
# bad scales, through harness.Cell.Validate) must be rejected on all three
# surfaces (API errors.Is, CLI exit 2, serve 400), never with a panic; every
# paper machine must validate, and GETM must complete its coarse-granule
# regression cells; benchdiff -policy must find a point's cells in both
# store description forms; the assembled lifecycle engine must stay
# race-clean; and the linear-time bookkeeping and the flat tables must match
# what they replaced: one-pass intra-warp resolution against the
# lane-by-lane oracle on random logs, the ready-mask warp choice against the
# slot rescan, coalesced loads' per-lane results on GETM, WarpTM and
# WarpTM-EL, the shared sim.Table against a Go map, the transaction log's
# one address table against a map model, the memory image's page table
# against a map of pages, the stall buffer's occupied lines against its map
# version, and the LLC's and the address map's shifts against division
# (DESIGN §6).
policy-gate:
	$(GO) test -short ./internal/policy/
	$(GO) test -race -run 'TestPresetFingerprints|TestNonPresetPointsRun' ./internal/policy/
	$(GO) test -run 'TestKeyStabilityAcrossPolicyRedesign|TestKeyNonPresetPolicies' ./internal/store/
	$(GO) test -run 'TestUnknownProtocol|TestProtocolOfRoundTrip|TestFreshVsRecycledIdentical|TestCutShortRunLeavesNothingBehind|TestConfigValidate|TestRunRejectsInvalidConfig|TestShardsRejected|TestCoarseGranuleCellsComplete' ./internal/gpu/
	$(GO) test -run 'TestVUOwnRequestsWokenOnHandoff|TestStallBufferMatchesMapVersion' ./internal/core/
	$(GO) test -run 'TestCellValidate|TestGoldenStoreAddresses' ./internal/harness/
	$(GO) test -run 'TestUnknownBenchmark|TestBuildRejectsBadScale' ./internal/workloads/
	$(GO) test -run 'TestPoliciesEnumeration|TestParsePolicy|TestRunInvalidPolicy|TestRunExperimentInvalidPolicy|TestRunPolicyPresetIdentity|TestProtocolIdentityAcrossEdges|TestTypedErrors|TestRunRejectsBadScale|TestRunInvalidConfig|TestRunExperimentInvalidScale' .
	$(GO) test -run 'TestPolicyFlag|TestPolicyPresetSharesStoreRecord|TestUnknownProtoFlag|TestInvalidCellFlags' ./cmd/getm-sim/
	$(GO) test -run 'TestPolicyGrid|TestPolicyFlagErrors|TestInvalidKnobValues' ./cmd/getm-sweep/
	$(GO) test -run 'TestInvalidScale|TestUnknownExperiment' ./cmd/getm-bench/
	$(GO) test -run 'TestSubmitPolicy|TestPolicyMetricsLabel|TestAdmissionParity' ./internal/serve/
	$(GO) test -run 'TestMatchesPolicy|TestParseStoreDirPolicy' ./cmd/benchdiff/
	$(GO) test -run 'TestResolveIntraWarpMatchesOracle|TestPickWarpMatchesRescan' ./internal/simt/
	$(GO) test -run 'TestSharedWordLoadResults' ./internal/core/ ./internal/warptm/
	$(GO) test -run 'TestTableMatchesMap|TestTableGenerationWrap' ./internal/sim/
	$(GO) test -run 'TestTxLogMatchesMapModel|TestTxLogForwardProperty' ./internal/tm/
	$(GO) test -run 'TestLLCIndexMatchesDivision|TestImageMatchesPageMap|TestAddressMapPartitionMatchesDivision' ./internal/mem/

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

# Go lines outside perf/ (the benchmark's own module) and .bench_build/
# (its build tree), non-test and test: the size ROADMAP.md tracks.
loc:
	@printf 'non-test %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './perf/*' -not -path './.bench_build/*' -exec cat {} + | wc -l)"
	@printf 'test     %s\n' "$$(find . -name '*_test.go' -not -path './perf/*' -not -path './.bench_build/*' -exec cat {} + | wc -l)"
