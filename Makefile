# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race vet fmt-check bench-check bench bench-hot bench-json bench-diff warm-cache fuzz stress chaos serve-metrics smoke-metrics load service-smoke crash-recovery log-bench explain-bench policy-race all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency suite under the race detector: the engine's striped
# locks, the runner's memo, and the parallel comparison waves.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The benchmark (bench/, its own module) imports the public API and
# internal/{service,obs,topk}; vetting and testing it keeps an API change
# from breaking it unnoticed. About two seconds.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Fails when any Go file is not gofmt-clean; `gofmt -l .` names them.
fmt-check:
	test -z "$$(gofmt -l .)"

# Wall-clock impact of the comparison-wave worker pool, plus the existing
# algorithm cost benchmarks.
bench:
	$(GO) test ./internal/topk/ -run '^$$' -bench BenchmarkCompareAllParallel -benchtime 3x
	$(GO) test ./internal/crowd/ -run '^$$' -bench . -benchtime 100x

# The microtask hot-path benchmarks behind the perf trajectory: batched
# draw kernels, parallel snapshot reads, and one end-to-end SPR query.
# -count 5 lets perfcheck (and benchstat) take medians over noise.
BENCH_HOT = -run '^$$' -bench 'BenchmarkDrawHotPath|BenchmarkViewParallel' -benchtime 0.5s -count 5
BENCH_E2E = -run '^$$' -bench 'BenchmarkSPREndToEnd' -benchtime 2x -count 5
# The scheduler utilization benchmark: one straggler pair among 200 on a
# simulated-latency crowd, wave vs async. perfcheck gates the ordering of
# the reported "util" metric (async must keep the pool busier than waves).
BENCH_SCHED = -run '^$$' -bench 'BenchmarkSchedulerStraggler' -benchtime 3x -count 3

bench-hot:
	$(GO) test ./internal/crowd/ $(BENCH_HOT)
	$(GO) test ./internal/topk/ $(BENCH_E2E)

# Refresh the machine-readable perf trajectory artifact: benchmark medians
# plus one instrumented end-to-end query's QueryStats, in one JSON file.
# bench-raw.txt keeps the raw `go test -bench` text for benchstat.
bench-json:
	$(GO) test ./internal/crowd/ $(BENCH_HOT) > bench-raw.txt
	$(GO) test ./internal/topk/ $(BENCH_E2E) >> bench-raw.txt
	$(GO) test ./internal/topk/ $(BENCH_SCHED) >> bench-raw.txt
	$(GO) run ./cmd/topkquery -n 200 -k 10 -stats-out query-stats.json > /dev/null
	$(GO) run ./cmd/perfcheck -current bench-raw.txt -stats query-stats.json -json BENCH_PR5.json \
		-metric-gate 'util:BenchmarkSchedulerStraggler/async>BenchmarkSchedulerStraggler/wave'

# Cold-vs-warm judgment-store scenario: an 8-query, 50%-overlap mix whose
# repeated half is answered from stored verdicts. Gates warm TMC <= 20%
# of cold with byte-identical top-k results and exact store-counter /
# engine-TMC reconciliation at /debug/accounting, then refreshes the
# committed BENCH_PR7.json artifact.
warm-cache:
	$(GO) run ./cmd/perfcheck -run warm -json BENCH_PR7.json

# Human-readable benchmark deltas against the committed baseline:
# benchstat when available, a pure-awk median table offline. The actual
# regression gate is `perfcheck -baseline` (see bench-json / CI).
bench-diff:
	./scripts/benchdiff.sh BENCH_BASELINE.txt bench-raw.txt

# Run one query with the live telemetry endpoint up: Prometheus metrics on
# /metrics, expvar JSON on /debug/vars, the span trace on /trace, and live
# pprof profiles on /debug/pprof/ (go tool pprof http://ADDR/debug/pprof/profile).
serve-metrics:
	$(GO) run ./cmd/topkquery -n 200 -k 10 -metrics-addr 127.0.0.1:9090 -serve-wait 10m

# End-to-end telemetry smoke test: scrape /metrics and /debug/vars of a
# live chaos query and assert the TMC counter matches the reported cost.
smoke-metrics:
	./scripts/metrics_smoke.sh

# The concurrent query load harness under the race detector: hundreds of
# queries with mixed priorities, budget sub-caps and random mid-flight
# cancellations against the faulty platform, exact global accounting and
# goroutine stability throughout (internal/loadtest).
load:
	$(GO) test -race ./internal/loadtest/ -count 1 -v

# Service-layer smoke test: boot topkd against a faulty simulated crowd,
# fire 20 concurrent queries with cancellations over HTTP, and gate on
# the exact-money invariant at /debug/accounting plus a clean SIGTERM
# drain.
service-smoke:
	./scripts/load_smoke.sh

# Crash recovery end to end: the audit log's kill-at-every-io-step and
# truncate-at-every-offset table tests plus tamper attribution under the
# race detector, then the topkd kill -9 / -resume smoke (three lives of
# one directory, exact zero-re-buy accounting).
crash-recovery:
	$(GO) test -race ./internal/auditlog/ -run 'TestCrash|TestTruncate|TestTamper|TestVerify' -count 1
	$(GO) test -race . -run 'TestAudit|TestResume' -count 1
	./scripts/crash_smoke.sh

# Durability-tax benchmark: the same deterministic query with the audit
# log off, batched (default), and fsync-always, 7 interleaved reps per
# mode, gated so batched logging's best rep costs <5% wall time over no
# logging's best rep. Refreshes the committed BENCH_PR8.json artifact.
log-bench:
	$(GO) run ./cmd/perfcheck -run log -json BENCH_PR8.json

# Explainability-tax benchmark: the same deterministic query with
# observability off and with per-pair cost attribution plus structured
# logging enabled, 7 interleaved reps per mode, gated so the enabled
# mode's best rep costs <3% wall time over off's best rep with the
# attribution tree summing exactly to Result.TMC on every rep. Refreshes
# the committed BENCH_PR9.json.
explain-bench:
	$(GO) run ./cmd/perfcheck -run explain -json BENCH_PR9.json

# Comparison-policy race: every policy × algorithm against the Lemma 1/3
# infimum. Requires every grid cell deterministic across reps, and at
# least one adaptive policy (voi/pac) beating fixed-step Student on
# TMC-vs-infimum at equal-or-better NDCG. Refreshes the committed
# BENCH_PR10.json, which holds no wall-time field; CI diffs it exactly.
policy-race:
	$(GO) run ./cmd/perfcheck -run policy -json BENCH_PR10.json

# Short fuzzing sessions: the plan driver's duplicate/orientation grouping,
# randomized platform fault schedules against the resilience layer, the
# O(1)-seeded source against math/rand's stream, the histogram's guided
# CDF search against a binary search, the resilient adapter's owed
# counts against a map-based reference, the judgment store's line
# encoder against json.Marshal, the audit-log segment parser on raw
# bytes, and the audit-log directory contract (Load and Open refuse
# exactly what Verify flags, naming its first bad file). Go runs one
# -fuzz target per invocation, hence one command each.
fuzz:
	$(GO) test ./internal/topk/ -run '^$$' -fuzz FuzzCompareAllGrouping -fuzztime 30s
	$(GO) test ./internal/topk/ -run '^$$' -fuzz FuzzFaultSchedule -fuzztime 30s
	$(GO) test ./internal/crowd/ -run '^$$' -fuzz FuzzSeededSource -fuzztime 30s
	$(GO) test ./internal/dataset/ -run '^$$' -fuzz FuzzHistogramCDF -fuzztime 30s
	$(GO) test ./internal/crowd/ -run '^$$' -fuzz FuzzResilientBookkeeping -fuzztime 30s
	$(GO) test ./internal/jstore/ -run '^$$' -fuzz FuzzRecordJSON -fuzztime 30s
	$(GO) test ./internal/auditlog/ -run '^$$' -fuzz FuzzSegmentReload -fuzztime 30s
	$(GO) test ./internal/auditlog/ -run '^$$' -fuzz FuzzDirectoryVerdict -fuzztime 30s

# Repeat the lazy pair-stream, engine stream golden, resilient-adapter,
# engine identity table, in-memory trail growth (allocation guard, order
# across growths), runner purchase accounting, comparison exit-path
# bookkeeping, bootstrap budget clamp, cross-layer identity, audit-trail
# (record identity, audit_len per trail, durable trail keeps nothing in
# memory) and judgment-store compaction golden tests 20 times each: a
# test that passes once but flakes under repetition (pooled state, map
# order, a leaked goroutine) fails here.
stress:
	$(GO) test ./internal/crowd/ -run 'TestPairStream|TestEngineStreamGolden|TestSeedPairFreshPairAllocs|TestResilient|FuzzResilientBookkeeping|TestSimPlatformAnswersGolden|TestDrawBatchMatchesScalarFallback|TestMemLogGrowthAllocs|TestMemLogOrderAcrossGrowths' -count 20
	$(GO) test ./internal/compare/ -run 'TestRunnerPurchaseAccounting|TestRunnerExitPathBookkeeping|TestBootstrapClampedToPairBudget' -count 20
	$(GO) test . -run 'TestPolicyLayerCrossLayerEquivalence|TestAuditTrailIdentity|TestDurableTrailKeepsNothingInMemory' -count 20
	$(GO) test ./internal/service/ -run 'TestAccountingAuditLenPerTrail' -count 20
	$(GO) test ./internal/jstore/ -run 'TestCompactionGolden' -count 20

# The deterministic chaos suite under the race detector: seeded fault
# schedules (drops, stragglers, duplicates, corruption, transient and
# permanent errors) against the resilient platform stack.
chaos:
	$(GO) test -race ./internal/crowd/ -run 'TestResilient|TestFaulty|TestEngine(Refunds|Latch|FirstFailure|DrawOne|CapAndFailure)|TestReplayThenLive|TestReadLog' -count 1
	$(GO) test -race ./internal/topk/ -run 'TestChaos' -count 1
	$(GO) test -race . -run 'TestQueryPartial|TestQueryResilience|TestSessionExactSpend|TestSessionConcurrent|TestResumeOracle' -count 1

all: build vet test race
