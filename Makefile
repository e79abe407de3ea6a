GO ?= go

.PHONY: check build vet test lint fmt fuzz fault-sweep experiments-smoke telemetry-smoke telemetry-bench \
	trace-demo bench bench-gate bench-ab bench-stream soak-smoke serve-smoke overload-smoke cache-smoke trace-smoke \
	watch-smoke campaign

# check chains the first CI steps; .github/workflows/ci.yml runs every
# step as one target of this Makefile, so each drill runs locally as is.
check: build vet test lint

build:
	$(GO) build ./...

# vet also fails when gofmt would rewrite any file, and vets the bench
# module (bench/, its own go.mod), which compiles against this module's
# solver, online and serve APIs but is built by no other target.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:" >&2; echo "$$unformatted" >&2; exit 1; fi

test:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/sdemlint ./...

# fuzz is a short smoke run of each fuzz target: the resilient runtime,
# the pruned §7 overhead scan against pricing every piece and against
# the golden-section oracle, the SDEM-ON engine against its full-rescan
# oracle, sdemd's single-pass request decoder against encoding/json, the
# offline solver dispatch (a typed error or a valid, audited schedule at
# or above the lower bound), the streaming energy meter against the
# Auditor, the bounded agreeable DP against the DP that solves every
# block, the wall-clock span-tree document (round trip and tree
# contract), the virtual-time Chrome trace (typed arguments and
# deferred sources against the eager oracle), and sdemd's raw-body cache
# (repeated and re-spaced bodies on a caching server against one
# uncached answer). CI runs it on every push, longer campaigns are
# manual (-fuzztime 10m etc.).
fuzz:
	$(GO) test ./internal/resilient -run '^$$' -fuzz FuzzExecute -fuzztime 10s
	$(GO) test ./internal/commonrelease -run '^$$' -fuzz FuzzOverheadScan -fuzztime 10s
	$(GO) test ./internal/online -run '^$$' -fuzz FuzzScheduleRescan -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSolve -fuzztime 10s
	$(GO) test ./internal/schedule -run '^$$' -fuzz FuzzMeter -fuzztime 10s
	$(GO) test ./internal/agreeable -run '^$$' -fuzz FuzzAgreeableDP -fuzztime 10s
	$(GO) test ./internal/telemetry/wspan -run '^$$' -fuzz FuzzTraceDoc -fuzztime 10s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz FuzzChromeTrace -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzRawCache -fuzztime 10s

# fault-sweep is the quick fault-injection acceptance sweep; its table
# must match EXPERIMENTS.md's.
fault-sweep:
	$(GO) run ./cmd/faultsim -sweep quick

# experiments-smoke runs a reduced-scale sweep on a 4-worker and a
# 1-worker pool: stdout must be byte-identical.
experiments-smoke:
	$(GO) run ./cmd/experiments -run fig6a,table3 -seeds 2 -tasks 20 -workers 4 > par.smoke
	$(GO) run ./cmd/experiments -run fig6a,table3 -seeds 2 -tasks 20 -workers 1 > seq.smoke
	diff par.smoke seq.smoke
	rm -f par.smoke seq.smoke

# telemetry-smoke checks telemetry does not perturb stdout (a reduced
# sweep with telemetry off and on must print the same bytes) and that
# the dumps carry the solver and sweep series.
telemetry-smoke:
	$(GO) run ./cmd/experiments -run fig6a,ablation -seeds 2 -tasks 12 > plain.smoke
	$(GO) run ./cmd/experiments -run fig6a,ablation -seeds 2 -tasks 12 \
		-telemetry -metrics-out=metrics.smoke -trace-out=trace.smoke > instrumented.smoke
	diff plain.smoke instrumented.smoke
	grep -q 'sdem.solver.cr' metrics.smoke
	grep -q 'sdem.sweep.points' metrics.smoke
	rm -f plain.smoke instrumented.smoke metrics.smoke trace.smoke

# telemetry-bench runs the disabled-path benchmark, which must stay at
# 0 allocs/op.
telemetry-bench:
	$(GO) test ./internal/telemetry -run '^$$' -bench BenchmarkTelemetryDisabled -benchtime 100x

# trace-demo writes a small sweep's metrics and a Chrome trace you can
# open in ui.perfetto.dev or chrome://tracing (see README "Observability").
trace-demo:
	$(GO) run ./cmd/experiments -run fig6a -seeds 2 -tasks 12 \
		-telemetry -metrics-out=trace-demo.metrics -trace-out=trace-demo.json
	@echo "wrote trace-demo.metrics and trace-demo.json (load the .json in ui.perfetto.dev)"

# BENCH_BASE is the newest committed BENCH_<n>.json, by numeric n
# (BENCH_5 sorts after BENCH_15 as text); BENCH_NEXT is the snapshot
# `make bench` writes, BENCH_<n+1>.json. Outside a git checkout the files
# on disk stand in for the committed ones.
BENCH_N := $(shell { git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json; } \
	| sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1)
BENCH_BASE = BENCH_$(BENCH_N).json
BENCH_NEXT = BENCH_$(shell expr $(BENCH_N) + 1).json

# bench runs the fast micro-benchmarks and snapshots them to $(BENCH_NEXT)
# via cmd/benchreport, comparing allocs/op and the solver work units
# (evals/op, pieces/op, cells/op, blocks/op, slope_evals/op) against the
# $(BENCH_BASE) baseline (fails on >5% growth). The figure-scale sweeps
# (Fig6*/Fig7*/Table3/Sweep*) are excluded: they take minutes and are run
# manually when sweep performance is the topic. ScheduleStreamMillion
# runs at a single iteration (one million-arrival pass is the statement)
# and lands in the snapshot alongside the pattern benchmarks; the 10k
# sibling rides in the alloc gate too. Serve* are whole sdemd requests
# through the in-process handler chain.
#
# bench and bench-gate fail loudly: their pipelines run under pipefail,
# so a `go test` that fails (a test file that does not build) fails the
# target, and benchreport refuses a run that lacks any benchmark of the
# baseline and then writes no snapshot.
BENCH_PATTERN = SolveCommonRelease|SolveAgreeable|SolveHeterogeneous|ScheduleOnline|ScheduleStream10k|MBKPBaseline|Audit|FFT1024|PartitionExact|Quantize|LowerBound|Telemetry|Uninstrumented|SnapshotDisabled|CanonicalKey|DecodeTaskRequest|Serve

bench bench-gate: SHELL := bash
bench bench-gate: .SHELLFLAGS := -o pipefail -c

bench:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./... && \
	  $(GO) test ./internal/online -run '^$$' -bench ScheduleStreamMillion -benchmem -benchtime 1x ) \
		| tee /dev/stderr | $(GO) run ./cmd/benchreport -out $(BENCH_NEXT) -compare $(BENCH_BASE)
	@echo "wrote $(BENCH_NEXT)"

# bench-gate re-runs the micro-benchmarks (and ScheduleStreamMillion once,
# as bench does, so the two runs hold the same benchmarks) without
# touching the committed snapshot and fails if any allocs/op or work unit
# regressed >5% vs the $(BENCH_BASE) baseline, or if any of its
# benchmarks did not run. This is the CI count-regression gate; counts
# (unlike ns/op) are deterministic for a fixed binary, so it never flakes
# under load.
bench-gate:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 100x -benchmem ./... && \
	  $(GO) test ./internal/online -run '^$$' -bench ScheduleStreamMillion -benchmem -benchtime 1x ) \
		| $(GO) run ./cmd/benchreport -compare $(BENCH_BASE) > /dev/null

# bench-ab compares the solver and online micro-benchmarks of BASE (any
# git revision, required) against the working tree on this host: each
# side's root and internal/online test binaries are built once (the base
# from a `git archive` of BASE, so no worktree is registered), then ten
# rounds of 1 s runs alternate the sides, base first in odd rounds and
# change first in even ones, so slow host drift hits both sides alike.
# Ten pairs is the least a gain can be cited from. benchreport pairs the
# runs and prints each benchmark's median ns/op per side and the median
# change/base ratio with its quartiles. The raw outputs stay in
# .bench_ab/{base,change}.txt.
#
#	make bench-ab BASE=HEAD~1
bench-ab:
	@set -e; [ -n "$(BASE)" ] || { echo "usage: make bench-ab BASE=<rev>" >&2; exit 2; }; \
	rm -rf .bench_ab; mkdir -p .bench_ab/base-src; \
	trap 'rm -rf .bench_ab/base-src .bench_ab/*.test' EXIT; \
	git archive "$(BASE)" | tar -x -C .bench_ab/base-src; \
	( cd .bench_ab/base-src && $(GO) test -c -o ../base-root.test . && \
	  $(GO) test -c -o ../base-online.test ./internal/online ); \
	$(GO) test -c -o .bench_ab/change-root.test . && \
	$(GO) test -c -o .bench_ab/change-online.test ./internal/online; \
	AB=$$(pwd)/.bench_ab; \
	side() { \
		src=.; [ $$1 = base ] && src=$$AB/base-src; \
		for pkg in root online; do \
			dir=$$src; [ $$pkg = online ] && dir=$$src/internal/online; \
			( cd $$dir && $$AB/$$1-$$pkg.test -test.run '^$$' \
				-test.bench 'SolveCommonRelease|SolveAgreeable|ScheduleOnline|ScheduleStream10k|Audit' \
				-test.benchmem -test.benchtime 1s -test.timeout 30m ) >> $$AB/$$1.txt; \
		done; \
	}; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		echo "bench-ab: round $$i of 10" >&2; \
		if [ $$((i % 2)) -eq 1 ]; then side base; side change; else side change; side base; fi; \
	done; \
	$(GO) run ./cmd/benchreport -ab-base .bench_ab/base.txt -ab-change .bench_ab/change.txt

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

# serve-smoke starts sdemd on an ephemeral port with one-request series
# windows: healthz, readyz, one solve and one simulate, the exposition's
# key series, sdemwatch reading the two sealed windows from
# /debug/series (report only: latency is wall time, so no profile), and
# a graceful SIGTERM exit (status 0).
serve-smoke:
	$(GO) build -o sdemd.smoke ./cmd/sdemd && $(GO) build -o sdemwatch.smoke ./cmd/sdemwatch
	@set -e; \
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr -series-window 1 & PID=$$!; \
	trap 'kill $$PID 2>/dev/null || true; rm -f sdemd.smoke sdemwatch.smoke sdemd.smoke.addr exposition.smoke watch.smoke' EXIT; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	BODY='{"Tasks":[{"ID":0,"Deadline":0.05,"Workload":2e6}]}'; \
	curl -sf "http://$$ADDR/healthz" | grep -q ok; \
	curl -sf "http://$$ADDR/readyz"; \
	curl -sf -d "$$BODY" "http://$$ADDR/v1/solve" | grep -q energy_j; \
	curl -sf -d "$$BODY" "http://$$ADDR/v1/simulate" | grep -q energy_j; \
	curl -sf "http://$$ADDR/metrics" > exposition.smoke; \
	grep -q '^sdem_serve_requests_total' exposition.smoke; \
	grep -q '^sdem_sim_energy_j_total' exposition.smoke; \
	grep -q '^# EOF' exposition.smoke; \
	./sdemwatch.smoke -url "http://$$ADDR/debug/series" > watch.smoke; \
	grep -q ' windows=2$$' watch.smoke; \
	kill -TERM $$PID; wait $$PID

# overload-smoke: a low-capacity race-built sdemd under 2x-plus load must
# shed (429 + Retry-After) without a single 5xx or recovered panic, and
# slow clients must be cut off. Latency-only chaos stretches handler
# time so a 2-slot gate saturates; latency faults cannot produce 5xx, so
# the zero-5xx gate stays strict. The load report stays in
# loadreport.json.
overload-smoke:
	$(GO) build -race -o sdemd.smoke ./cmd/sdemd && $(GO) build -race -o sdemload.smoke ./cmd/sdemload
	@set -e; \
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr \
		-admit-concurrency 2 -admit-queue 2 -chaos-rate 0.8 -chaos-max-delay 200ms & PID=$$!; \
	trap 'kill $$PID 2>/dev/null || true; rm -f sdemd.smoke sdemload.smoke sdemd.smoke.addr metrics.smoke' EXIT; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	./sdemload.smoke -addr "$$ADDR" -op simulate -duration 5s -concurrency 24 \
		-tasks 30 -hot 0.7 -slow 1 -require-shed -max-5xx 0 -out loadreport.json; \
	cat loadreport.json; \
	curl -sf "http://$$ADDR/metrics" > metrics.smoke; \
	grep -q 'sdem_serve_shed_total' metrics.smoke; \
	if grep -q 'sdem_serve_panics_total{' metrics.smoke; then echo "sdemd recovered a panic" >&2; exit 1; fi; \
	kill -TERM $$PID; wait $$PID

# cache-smoke: a race-built sdemd must serve at least 90 of 100 requests
# for one repeated task set from the schedule cache (hit or coalesced).
cache-smoke:
	$(GO) build -race -o sdemd.smoke ./cmd/sdemd && $(GO) build -race -o sdemload.smoke ./cmd/sdemload
	@set -e; \
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr & PID=$$!; \
	trap 'kill $$PID 2>/dev/null || true; rm -f sdemd.smoke sdemload.smoke sdemd.smoke.addr metrics.smoke' EXIT; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	./sdemload.smoke -addr "$$ADDR" -op simulate -requests 100 -duration 30s \
		-concurrency 4 -hot 1 -hot-sets 1 -tasks 10 -max-5xx 0; \
	curl -sf "http://$$ADDR/metrics" > metrics.smoke; \
	grep -E 'sdem_serve_cache_total' metrics.smoke; \
	CACHED=$$(grep -E 'result="(hit|coalesced)"' metrics.smoke | awk '{s+=$$NF} END {print s+0}'); \
	echo "served from cache: $$CACHED/100"; \
	[ "$$CACHED" -ge 90 ]; \
	kill -TERM $$PID; wait $$PID

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
# summary line into the newest snapshot: $(BENCH_NEXT) once `make bench`
# wrote it, the committed $(BENCH_BASE) otherwise. Minutes-long by
# design; run manually when serve throughput is the topic.
campaign:
	$(GO) build -o sdemd.smoke ./cmd/sdemd && $(GO) build -o sdemload.smoke ./cmd/sdemload
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file sdemd.smoke.addr & \
	PID=$$!; \
	for i in $$(seq 1 50); do [ -s sdemd.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat sdemd.smoke.addr); \
	./sdemload.smoke -addr "$$ADDR" -campaign -out campaign.json > campaign.txt; \
	STATUS=$$?; cat campaign.txt; kill $$PID 2>/dev/null; wait $$PID 2>/dev/null; \
	SNAP=$(BENCH_BASE); [ -f $(BENCH_NEXT) ] && SNAP=$(BENCH_NEXT); \
	if [ $$STATUS -eq 0 ]; then \
		$(GO) run ./cmd/benchreport -merge $$SNAP -out $$SNAP < campaign.txt || STATUS=1; \
	fi; \
	rm -f sdemd.smoke sdemload.smoke sdemd.smoke.addr campaign.txt; exit $$STATUS

# trace-smoke: race-built sdemd servers with tracing on and off. A solve
# body must be byte-identical traced and untraced (the body embeds the
# request ID, so it runs before any other traffic); sdemload -trace pulls
# all 40 admitted requests' wall span trees back and sdemtrace -verify
# gates their well-formedness; /metrics must carry trace_id exemplars
# that resolve to stored traces, and the untraced exposition none. The
# span trees stay in traces.jsonl.
trace-smoke:
	$(GO) build -race -o sdemd.smoke ./cmd/sdemd && $(GO) build -race -o sdemload.smoke ./cmd/sdemload \
		&& $(GO) build -race -o sdemtrace.smoke ./cmd/sdemtrace
	@set -e; \
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file trace.smoke.addr & PID=$$!; \
	./sdemd.smoke -addr 127.0.0.1:0 -addr-file notrace.smoke.addr -trace-sample 0 & OFF_PID=$$!; \
	TMP="sdemd.smoke sdemload.smoke sdemtrace.smoke trace.smoke.addr notrace.smoke.addr"; \
	TMP="$$TMP traced.smoke untraced.smoke report.smoke metrics.smoke"; \
	trap 'kill $$PID $$OFF_PID 2>/dev/null || true; rm -f $$TMP' EXIT; \
	for i in $$(seq 1 50); do [ -s trace.smoke.addr ] && [ -s notrace.smoke.addr ] && break; sleep 0.1; done; \
	ADDR=$$(cat trace.smoke.addr); OFF=$$(cat notrace.smoke.addr); \
	BODY='{"Tasks":[{"ID":0,"Deadline":0.05,"Workload":2e6}]}'; \
	curl -sf -d "$$BODY" "http://$$ADDR/v1/solve" > traced.smoke; \
	curl -sf -d "$$BODY" "http://$$OFF/v1/solve" > untraced.smoke; \
	diff traced.smoke untraced.smoke; \
	rm -f traces.jsonl; \
	./sdemload.smoke -addr "$$ADDR" -op simulate -requests 40 -duration 30s \
		-concurrency 4 -tasks 10 -max-5xx 0 -trace-out traces.jsonl -out report.smoke; \
	grep -q '"traces_fetched": 40' report.smoke; \
	./sdemtrace.smoke -verify traces.jsonl; \
	./sdemtrace.smoke traces.jsonl; \
	curl -sf "http://$$ADDR/metrics" > metrics.smoke; \
	grep -q '# {trace_id=' metrics.smoke; \
	TID=$$(grep -o 'trace_id="[0-9a-f]*"' metrics.smoke | head -1 | cut -d'"' -f2); \
	curl -sf "http://$$ADDR/debug/trace/$$TID" | grep -q '"spans"'; \
	if curl -sf "http://$$OFF/metrics" | grep -q 'trace_id='; then echo "untraced exposition carries exemplars" >&2; exit 1; fi; \
	kill -TERM $$PID $$OFF_PID; wait $$PID $$OFF_PID

fmt:
	gofmt -l -w .
