GO ?= go

.PHONY: check build vet test lint fmt fuzz trace-demo bench bench-gate bench-stream soak-smoke overload-smoke trace-smoke watch-smoke campaign

# check chains the same steps CI runs (.github/workflows/ci.yml).
check: build vet test lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/sdemlint ./...

# fuzz is a short smoke run of the resilient-runtime fuzz target; CI runs
# it on every push, longer campaigns are manual (-fuzztime 10m etc.).
fuzz:
	$(GO) test ./internal/resilient -run '^$$' -fuzz FuzzExecute -fuzztime 10s

# trace-demo writes a small sweep's metrics and a Chrome trace you can
# open in ui.perfetto.dev or chrome://tracing (see README "Observability").
trace-demo:
	$(GO) run ./cmd/experiments -run fig6a -seeds 2 -tasks 12 \
		-telemetry -metrics-out=trace-demo.metrics -trace-out=trace-demo.json
	@echo "wrote trace-demo.metrics and trace-demo.json (load the .json in ui.perfetto.dev)"

# bench runs the fast micro-benchmarks and snapshots them to
# BENCH_12.json via cmd/benchreport, comparing allocs/op against the
# committed BENCH_10.json baseline (fails on >5% growth) and enforcing
# the agreeable-DP improvement floor (SolveAgreeableDP at least 20x
# faster than the golden-section block search it replaced; root finding
# on the closed-form subgradient bought ~250x), so baselines can be
# diffed in review and regressions gate. The ScheduleStream10k allocs
# floor of the BENCH_10 era is retired: it demanded improvement vs a
# pre-free-list baseline that BENCH_10 already banked. The figure-scale
# sweeps (Fig6*/Fig7*/Table3/Sweep*) are excluded: they take minutes and
# are run manually when sweep performance is the topic.
# ScheduleStreamMillion runs at a single iteration (one million-arrival
# pass is the statement) and lands in the snapshot alongside the pattern
# benchmarks; the 10k sibling rides in the alloc gate too.
BENCH_PATTERN = SolveCommonRelease|SolveAgreeableDP|SolveHeterogeneous|ScheduleOnline|ScheduleStream10k|MBKPBaseline|Audit|FFT1024|PartitionExact|Quantize|LowerBound|Telemetry|Uninstrumented|SnapshotDisabled|CanonicalKey

bench:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./... && \
	  $(GO) test ./internal/online -run '^$$' -bench ScheduleStreamMillion -benchmem -benchtime 1x ) \
		| tee /dev/stderr | $(GO) run ./cmd/benchreport -out BENCH_12.json -compare BENCH_10.json \
		-require 'BenchmarkSolveAgreeableDP:ns=20'
	@echo "wrote BENCH_12.json"

# bench-gate re-runs the micro-benchmarks without touching the committed
# snapshot and fails if any allocs/op regressed >5% vs the BENCH_12.json
# baseline. This is the CI alloc-regression gate; allocs/op (unlike ns/op)
# is deterministic for a fixed binary, so it never flakes under load.
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 100x \
		-benchmem ./... | $(GO) run ./cmd/benchreport -compare BENCH_12.json > /dev/null

# bench-stream pushes one million sporadic arrivals through the streaming
# engine in a single pass: allocations must track the active set (the
# reported max_active), not the arrival count, and any unexplained miss
# fails the benchmark itself.
bench-stream:
	$(GO) test ./internal/online -run '^$$' -bench ScheduleStreamMillion -benchmem -benchtime 1x

# soak-smoke runs the streaming engine for ten virtual minutes under
# fault injection; sdemsoak exits nonzero on any unexplained miss.
soak-smoke:
	$(GO) run ./cmd/sdemsoak -virtual 600 -fault-intensity 0.6 -q

# overload-smoke reproduces the CI overload drill locally: a low-capacity
# sdemd under 2x-plus load must shed (429 + Retry-After) without a single
# 5xx, and repeated hot task sets must land in the schedule cache.
overload-smoke:
	$(GO) build -o sdemd.smoke ./cmd/sdemd && $(GO) build -o sdemload.smoke ./cmd/sdemload
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr \
		-admit-concurrency 2 -admit-queue 2 \
		-chaos-rate 0.8 -chaos-max-delay 200ms & \
	PID=$$!; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	./sdemload.smoke -addr "$$ADDR" -op simulate -duration 5s -concurrency 24 \
		-tasks 30 -hot 0.7 -slow 1 -require-shed -max-5xx 0 -out loadreport.json; \
	STATUS=$$?; kill $$PID 2>/dev/null; wait $$PID 2>/dev/null; \
	rm -f sdemd.smoke sdemload.smoke sdemd.smoke.addr; exit $$STATUS

# watch-smoke drives the long-haul observability loop on the PR path:
# a fault-free windowed soak must pass its SLOs with byte-identical
# series dumps across repeat runs, sdemwatch must render byte-identical
# reports and verdicts from those dumps, and a fault-heavy soak must
# breach the miss-rate SLO and exit nonzero — the alarm is tested, not
# assumed. All windows are virtual-time; nothing here depends on wall
# clocks, so the diffs never flake.
watch-smoke:
	$(GO) build -race -o sdemsoak.smoke ./cmd/sdemsoak && $(GO) build -race -o sdemwatch.smoke ./cmd/sdemwatch
	./sdemsoak.smoke -virtual 600 -fault-intensity 0.6 -q -window 60 \
		-series-out soak1.jsonl -slo-miss-rate 0.05 -slo-p99 2 -slo-drift 0.5
	./sdemsoak.smoke -virtual 600 -fault-intensity 0.6 -q -window 60 \
		-series-out soak2.jsonl -slo-miss-rate 0.05 -slo-p99 2 -slo-drift 0.5
	cmp soak1.jsonl soak2.jsonl
	./sdemwatch.smoke -series soak1.jsonl -profile soak -verdict-out verdict1.json > watch1.txt
	./sdemwatch.smoke -series soak2.jsonl -profile soak -verdict-out verdict2.json > watch2.txt
	cmp watch1.txt watch2.txt
	cmp verdict1.json verdict2.json
	! ./sdemsoak.smoke -virtual 600 -fault-intensity 0.9 -q -window 60 -slo-miss-rate 0.01 2> breach.txt
	grep -q "SLO breach" breach.txt
	rm -f sdemsoak.smoke sdemwatch.smoke soak1.jsonl soak2.jsonl watch1.txt watch2.txt \
		verdict1.json verdict2.json breach.txt

# campaign replays the seeded million-request mixed hot/cold simulate
# campaign against a local sdemd and merges the benchreport-compatible
# summary line into the committed BENCH_12.json baseline. Minutes-long
# by design; run manually when serve throughput is the topic.
campaign:
	$(GO) build -o sdemd.smoke ./cmd/sdemd && $(GO) build -o sdemload.smoke ./cmd/sdemload
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr & \
	PID=$$!; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	./sdemload.smoke -addr "$$ADDR" -campaign -out campaign.json > campaign.txt; \
	STATUS=$$?; cat campaign.txt; kill $$PID 2>/dev/null; wait $$PID 2>/dev/null; \
	if [ $$STATUS -eq 0 ]; then \
		$(GO) run ./cmd/benchreport -merge BENCH_12.json -out BENCH_12.json < campaign.txt || STATUS=1; \
	fi; \
	rm -f sdemd.smoke sdemload.smoke sdemd.smoke.addr campaign.txt; exit $$STATUS

# trace-smoke reproduces the CI request-tracing drill locally: sdemload
# -trace pulls every admitted request's wall span tree back out, sdemtrace
# -verify gates tree well-formedness, /metrics must carry trace_id
# exemplars, and a solve body must be byte-identical with tracing off.
trace-smoke:
	$(GO) build -o sdemd.smoke ./cmd/sdemd && $(GO) build -o sdemload.smoke ./cmd/sdemload \
		&& $(GO) build -o sdemtrace.smoke ./cmd/sdemtrace
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr & \
	PID=$$!; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	./sdemload.smoke -addr "$$ADDR" -op simulate -requests 40 -duration 30s \
		-concurrency 4 -tasks 10 -max-5xx 0 -trace-out traces.jsonl; \
	STATUS=$$?; \
	[ $$STATUS -eq 0 ] && ./sdemtrace.smoke -verify traces.jsonl && ./sdemtrace.smoke traces.jsonl \
		&& curl -sf "http://$$ADDR/metrics" | grep -q '# {trace_id=' || STATUS=1; \
	kill $$PID 2>/dev/null; wait $$PID 2>/dev/null; \
	rm -f sdemd.smoke sdemload.smoke sdemtrace.smoke sdemd.smoke.addr; exit $$STATUS

fmt:
	gofmt -l -w .
