# Tier-1 verification and CI targets.
#
#   make tier1       build + vet + test          (the ROADMAP tier-1 gate)
#   make lint        gofmt -l empty + go vet of both modules (+ staticcheck when installed)
#   make race        full suite under -race      (guards the parallel runner)
#   make ci          tier1 + race
#   make bench       paper-regeneration + scheduler benchmarks
#   make race-reuse  the cross-worker testbed-reuse study, -race -count=10
#   make race-live   loopback server/client under -race (live network path)
#   make profile     cpu.pprof + mem.pprof of a full-matrix run (go tool pprof)
#   make bench-json  run committed benchmarks, write $(BENCH_JSON) trajectory
#   make bench-diff  compare $(BENCH_OLD) vs $(BENCH_NEW), fail on allocs/op regression
#   make fuzz-smoke  run every fuzz target briefly (native Go fuzzing)
#   make cover       whole-repo coverage.out + enforce the faults/sweep/fleet/frame floors
#   make sweep-smoke kill a sweep with SIGKILL, rerun it on its cache, diff vs uninterrupted
#   make fleet-load  10k-session loadgen under -race with a heap ceiling
#   make fleet-cluster  root + 3 collectors over the wire, SIGKILL one mid-run
#   make sweep-cluster  3 sweep processes on one cache dir, SIGKILL one
#                       mid-run, every survivor's export must be
#                       byte-identical to the single-process sweep
#   make artifacts   regenerate the committed outputs in artifacts/

GO ?= go

.PHONY: all build vet test lint race race-core race-reuse race-live tier1 ci bench profile bench-json bench-diff fuzz-smoke cover sweep-smoke fleet-load fleet-cluster sweep-cluster artifacts

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# lint fails when any file needs gofmt, then vets. The benchmark in
# perfbench/ is its own module and imports internal packages by name, so
# it is vetted too: a rename that the main module builds past still
# breaks the benchmark build here. staticcheck runs only when present on
# PATH (CI images without it skip with a note rather than requiring a
# network install).
lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (gofmt + go vet ran)"; \
	fi

# race runs everything under the race detector; race-core is the quick
# loop for the parallel study scheduler. race-reuse repeats the
# cross-worker study ten times: each worker resets one testbed cell after
# cell, which no other worker may reach, and the schedule, and with it
# which cells share a testbed, varies from run to run.
race:
	$(GO) test -race ./...

race-core: race-reuse
	$(GO) test -race ./internal/core/...

race-reuse:
	$(GO) test -race -count=10 -run '^TestStudyReusesTestbedsAcrossWorkers$$' ./internal/core/

# race-live exercises the real-socket path (loopback only): the live
# measurement server, its drain/observability wiring and the client
# drivers, with a timeout so a hung drain fails fast instead of wedging CI.
race-live:
	$(GO) test -race -timeout 180s ./internal/server/... ./internal/liveclient/...

tier1: build vet test

ci: tier1 race

bench:
	$(GO) test -bench=. -benchmem .

# profile captures pprof CPU and allocation profiles of a representative
# full-matrix study (the Figure 3 workload the allocation work targets).
# Inspect with `go tool pprof -top mem.pprof` or the pprof web UI; the
# allocation war is fought from the alloc_objects view of mem.pprof.
PROFILE_RUNS ?= 20
profile:
	$(GO) run ./cmd/appraise -fig 3 -runs $(PROFILE_RUNS) \
		-cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "wrote cpu.pprof and mem.pprof (inspect: go tool pprof -top mem.pprof)"

# bench-json runs every committed benchmark and converts the output into
# the perf-trajectory snapshot BENCH_<pr>.json (ns/op, B/op, allocs/op
# per benchmark). BENCHTIME=3x trades a little CI time for numbers that
# are not single-iteration noise; override with BENCHTIME=100ms (or more)
# for lower-variance local runs. The setting is recorded in the snapshot
# header so downstream diffs know what they are looking at.
BENCH_JSON ?= BENCH_ci.json
BENCHTIME ?= 3x
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out
	$(GO) run ./cmd/benchjson -in bench.out -benchtime $(BENCHTIME) -out $(BENCH_JSON)
	@rm -f bench.out

# bench-diff compares two trajectory snapshots and exits non-zero when
# any benchmark's allocs/op regressed past 20% or ns/op past 25% (above
# the 1µs noise floor). Baseline discovery lives in benchdiff itself
# (numerically highest committed BENCH_<n>.json, loud error when none
# exists — the logic is unit-tested in cmd/benchdiff); override with
# BENCH_OLD=.... On GitHub runners benchdiff also appends a Markdown
# delta table to $GITHUB_STEP_SUMMARY.
BENCH_OLD ?=
BENCH_NEW ?= BENCH_ci.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(if $(BENCH_OLD),-old $(BENCH_OLD)) -new $(BENCH_NEW)

# fuzz-smoke runs each native fuzz target briefly. Go allows one -fuzz
# target per invocation, so the targets are discovered with `go test
# -list '^Fuzz'` per package and run one at a time: a new Fuzz function
# joins without an edit here. The weekly extended run
# (.github/workflows/fuzz-weekly.yml) uses the same targets with
# FUZZTIME=100s. -fuzzminimizetime caps the time spent minimizing each
# new corpus entry: under Go's 60 s default, minimizing one entry grown
# from a multi-kilobyte sketch seed stalled FuzzSketchDecode for most of
# a 30 s run.
FUZZTIME ?= 10s
fuzz-smoke:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list"; exit 1; }; \
	targets="$$(printf '%s\n' "$$list" | awk '/^Fuzz/ {f[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2 "=" f[i]; n = 0}')"; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	for t in $$targets; do \
		pkg=$${t%%=*}; fz=$${t#*=}; \
		echo "fuzz-smoke: $$fz ($$pkg)"; \
		$(GO) test -fuzz "^$$fz\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -run '^$$' $$pkg || exit 1; \
	done

# cover writes the whole-repo profile to coverage.out (the CI artifact)
# and enforces a statement-coverage floor on each package:floor pair of
# COVER_FLOORS: the fault-injection layer, the sweep cache, the fleet
# aggregation plane and the frame codec every wire and cell file speaks
# (whose correctness claims rest on their tests).
FAULTS_COVER_MIN ?= 85
SWEEP_COVER_MIN ?= 85
FLEET_COVER_MIN ?= 85
COVER_FLOORS = internal/faults:$(FAULTS_COVER_MIN) internal/sweep:$(SWEEP_COVER_MIN) \
	internal/fleet:$(FLEET_COVER_MIN) internal/frame:95
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; min=$${pf##*:}; \
		$(GO) test -coverprofile=coverage_pkg.out ./$$pkg/ || exit 1; \
		total="$$($(GO) tool cover -func=coverage_pkg.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
		rm -f coverage_pkg.out; \
		echo "$$pkg coverage: $$total% (floor $$min%)"; \
		awk -v t="$$total" -v min="$$min" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
			{ echo "$$pkg coverage below floor"; exit 1; }; \
	done

# sweep-smoke proves the kill/resume contract end to end on the real CLI:
# a cold sweep is SIGKILLed mid-flight (no chance to clean up) and must
# leave finished cells in its cache; the same command rerun on that cache
# replays them and computes the rest, and its CSV must be byte-identical
# to an uninterrupted sweep of the same configuration in a fresh cache.
# The runs count is sized so the cold sweep takes about 18 s on 2 CPUs,
# long enough that the 2 s SIGKILL lands mid-sweep on a runner with a
# few more. A kill that lands after the last cell (the killed cache holds
# as many cells as the uninterrupted one) fails the target: an
# un-exercised resume is not a pass.
SWEEP_SMOKE_DIR ?= sweep-smoke.tmp
SWEEP_SMOKE_RUNS ?= 10000
SWEEP_SMOKE_FLAGS = -sweep -runs $(SWEEP_SMOKE_RUNS) -seed 42 -faults clean,lossy1pct
sweep-smoke:
	rm -rf $(SWEEP_SMOKE_DIR)
	mkdir -p $(SWEEP_SMOKE_DIR)
	$(GO) build -o $(SWEEP_SMOKE_DIR)/appraise ./cmd/appraise
	-timeout -s KILL 2 $(SWEEP_SMOKE_DIR)/appraise $(SWEEP_SMOKE_FLAGS) \
		-cache-dir $(SWEEP_SMOKE_DIR)/killed >/dev/null 2>&1
	ls $(SWEEP_SMOKE_DIR)/killed/cells/*.cell >/dev/null
	ls $(SWEEP_SMOKE_DIR)/killed/cells/*.cell | wc -l >$(SWEEP_SMOKE_DIR)/killed.count
	$(SWEEP_SMOKE_DIR)/appraise $(SWEEP_SMOKE_FLAGS) \
		-cache-dir $(SWEEP_SMOKE_DIR)/killed -csv $(SWEEP_SMOKE_DIR)/resumed.csv >/dev/null
	$(SWEEP_SMOKE_DIR)/appraise $(SWEEP_SMOKE_FLAGS) \
		-cache-dir $(SWEEP_SMOKE_DIR)/cold -csv $(SWEEP_SMOKE_DIR)/cold.csv >/dev/null
	@killed=$$(cat $(SWEEP_SMOKE_DIR)/killed.count); \
	total=$$(ls $(SWEEP_SMOKE_DIR)/cold/cells/*.cell | wc -l); \
	echo "sweep-smoke: the SIGKILL left $$killed of $$total cells"; \
	[ "$$killed" -lt "$$total" ] || \
		{ echo "sweep-smoke: the sweep finished before the kill — raise SWEEP_SMOKE_RUNS"; exit 1; }
	cmp $(SWEEP_SMOKE_DIR)/resumed.csv $(SWEEP_SMOKE_DIR)/cold.csv
	@echo "sweep-smoke: resumed export is byte-identical to an uninterrupted sweep"
	@rm -rf $(SWEEP_SMOKE_DIR)

# fleet-load is the CI-sized live-observability load proof: 10k concurrent
# synthetic sessions ingested under the race detector, with loadgen's own
# assertions (session floor, sample conservation, /metrics byte-stability)
# plus a live-heap ceiling. The full 100k-session shape documented in
# EXPERIMENTS.md is the same binary without -race and with the defaults.
FLEET_SESSIONS ?= 10000
FLEET_ROUNDS ?= 3
FLEET_HEAP_MB ?= 192
fleet-load:
	$(GO) run -race ./cmd/loadgen -sessions $(FLEET_SESSIONS) -rounds $(FLEET_ROUNDS) \
		-assert-heap-mb $(FLEET_HEAP_MB)

# fleet-cluster proves the multi-node observability plane end to end on
# real binaries: a bmagg root plus three loadgen collectors shipping
# delta-sketch frames over HTTP, all built with -race. One collector is
# SIGKILLed mid-run; the root must keep serving /readyz, /metrics (byte-
# stable double scrape) and /live/history with the survivors' frames
# still merging. The in-process proofs run first under -race: cluster
# rows exactly equal to each collector's local snapshot regardless of
# frame arrival order, duplicate/gap/version fault paths (a version bit
# flip counted as corruption, never as skew), the never-block uplink
# contract, and the shared frame codec's cut and bit-flip suites.
FLEET_CLUSTER_DIR ?= fleet-cluster.tmp
FLEET_CLUSTER_PORT ?= 19410
fleet-cluster:
	$(GO) test -race -count=1 -run 'TestCluster|TestAggregator|TestUplink|TestFourNode' \
		./internal/fleet/ ./internal/fleetwire/
	$(GO) test -race -count=1 ./internal/frame/
	rm -rf $(FLEET_CLUSTER_DIR)
	mkdir -p $(FLEET_CLUSTER_DIR)
	$(GO) build -race -o $(FLEET_CLUSTER_DIR)/bmagg ./cmd/bmagg
	$(GO) build -race -o $(FLEET_CLUSTER_DIR)/loadgen ./cmd/loadgen
	@set -e; \
	root=http://127.0.0.1:$(FLEET_CLUSTER_PORT); \
	$(FLEET_CLUSTER_DIR)/bmagg -addr 127.0.0.1:$(FLEET_CLUSTER_PORT) -interval 300ms \
		>$(FLEET_CLUSTER_DIR)/root.log 2>&1 & AGG=$$!; \
	trap 'kill $$AGG 2>/dev/null || true' EXIT; \
	sleep 1; \
	code=$$(curl -s -m 5 -o /dev/null -w '%{http_code}' $$root/readyz); \
	[ "$$code" = 503 ] || { echo "fleet-cluster: /readyz before any frame = $$code, want 503"; exit 1; }; \
	for n in c1 c2 c3; do \
		$(FLEET_CLUSTER_DIR)/loadgen -sessions 1500 -rounds 6 -fanin 150ms -round-delay 500ms \
			-uplink $$root/ingest -node $$n >$(FLEET_CLUSTER_DIR)/$$n.log 2>&1 & \
		eval "$$n=$$!"; \
	done; \
	sleep 2; kill -9 $$c3 2>/dev/null || true; \
	wait $$c1; wait $$c2; wait $$c3 2>/dev/null || true; \
	sleep 1; \
	code=$$(curl -s -m 5 -o /dev/null -w '%{http_code}' $$root/readyz); \
	[ "$$code" = 200 ] || { echo "fleet-cluster: /readyz after the kill = $$code, want 200"; exit 1; }; \
	stable=; i=0; \
	while [ $$i -lt 5 ]; do \
		curl -s -m 5 $$root/metrics >$(FLEET_CLUSTER_DIR)/m1.prom; \
		curl -s -m 5 $$root/metrics >$(FLEET_CLUSTER_DIR)/m2.prom; \
		if cmp -s $(FLEET_CLUSTER_DIR)/m1.prom $(FLEET_CLUSTER_DIR)/m2.prom; then stable=1; break; fi; \
		i=$$((i+1)); \
	done; \
	[ -n "$$stable" ] || { echo "fleet-cluster: root /metrics never byte-stable across a double scrape"; exit 1; }; \
	grep -q '^fleet_agg_nodes 3$$' $(FLEET_CLUSTER_DIR)/m1.prom || \
		{ echo "fleet-cluster: root did not see 3 nodes"; grep '^fleet_agg' $(FLEET_CLUSTER_DIR)/m1.prom; exit 1; }; \
	grep -q '^fleet_agg_frames_rejected_total{reason="corrupt"} 0$$' $(FLEET_CLUSTER_DIR)/m1.prom || \
		{ echo "fleet-cluster: root rejected frames from healthy collectors"; exit 1; }; \
	curl -s -m 5 "$$root/live/history?since=0" >$(FLEET_CLUSTER_DIR)/history.json; \
	grep -q '"node":"c1"' $(FLEET_CLUSTER_DIR)/history.json || \
		{ echo "fleet-cluster: history has no rows for surviving node c1"; exit 1; }; \
	grep -q '"node":"c2"' $(FLEET_CLUSTER_DIR)/history.json || \
		{ echo "fleet-cluster: history has no rows for surviving node c2"; exit 1; }; \
	grep -q '^loadgen: PASS$$' $(FLEET_CLUSTER_DIR)/c1.log || \
		{ echo "fleet-cluster: collector c1 failed"; tail -20 $(FLEET_CLUSTER_DIR)/c1.log; exit 1; }; \
	grep -q '^loadgen: PASS$$' $(FLEET_CLUSTER_DIR)/c2.log || \
		{ echo "fleet-cluster: collector c2 failed"; tail -20 $(FLEET_CLUSTER_DIR)/c2.log; exit 1; }; \
	kill $$AGG 2>/dev/null; wait $$AGG 2>/dev/null || true; trap - EXIT; \
	echo "fleet-cluster: root survived a SIGKILLed collector; cluster view stayed live and byte-stable"
	@rm -rf $(FLEET_CLUSTER_DIR)

# sweep-cluster proves that several sweep processes share one cache dir
# with no coordinator, end to end on real processes. One process runs the
# sweep alone first; then three run it at once on a second cache dir and
# one of them is SIGKILLed 2 s in. The kill failing because the victim
# already exited fails the target (an un-exercised crash path is not a
# pass). Every survivor's stdout report and CSV must be byte-identical to
# the solo run's, and the survivors together may compute at most 1.25x
# the planned cells: each process walks the plan in its own order, so
# they mostly compute different cells (two processes walking one shared
# order computed 105 of 156 cells twice). The in-process proofs run first
# under -race. The runs count is sized, as for sweep-smoke, so the sweep
# takes long enough that the 2 s kill lands mid-run.
SWEEP_CLUSTER_DIR ?= sweep-cluster.tmp
SWEEP_CLUSTER_RUNS ?= 10000
SWEEP_CLUSTER_FLAGS = -runs $(SWEEP_CLUSTER_RUNS) -seed 42 -faults clean,lossy1pct
sweep-cluster:
	$(GO) test -race -count=1 -run 'TestSweepConcurrentRunsShareCache|TestCellOrderPermutes|TestCacheConcurrent' ./internal/sweep/
	rm -rf $(SWEEP_CLUSTER_DIR)
	mkdir -p $(SWEEP_CLUSTER_DIR)
	$(GO) build -o $(SWEEP_CLUSTER_DIR)/appraise ./cmd/appraise
	$(SWEEP_CLUSTER_DIR)/appraise -sweep $(SWEEP_CLUSTER_FLAGS) \
		-cache-dir $(SWEEP_CLUSTER_DIR)/solo -csv $(SWEEP_CLUSTER_DIR)/solo.csv \
		>$(SWEEP_CLUSTER_DIR)/solo.txt 2>$(SWEEP_CLUSTER_DIR)/solo.log
	@set -e; d=$(SWEEP_CLUSTER_DIR); \
	for n in p1 p2 p3; do \
		$$d/appraise -sweep $(SWEEP_CLUSTER_FLAGS) -cache-dir $$d/shared -csv $$d/$$n.csv \
			>$$d/$$n.txt 2>$$d/$$n.log & \
		eval "$$n=$$!"; \
	done; \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true' EXIT; \
	sleep 2; \
	if kill -9 $$p2 2>/dev/null; then \
		echo "sweep-cluster: SIGKILLed p2 mid-run"; \
	else \
		echo "sweep-cluster: p2 finished before the kill — raise SWEEP_CLUSTER_RUNS"; exit 1; \
	fi; \
	wait $$p1 || { echo "sweep-cluster: p1 failed"; tail -20 $$d/p1.log; exit 1; }; \
	wait $$p3 || { echo "sweep-cluster: p3 failed"; tail -20 $$d/p3.log; exit 1; }; \
	wait $$p2 2>/dev/null || true; \
	trap - EXIT; \
	for n in p1 p3; do \
		cmp $$d/solo.csv $$d/$$n.csv || { echo "sweep-cluster: $$n CSV differs from the solo sweep"; exit 1; }; \
		cmp $$d/solo.txt $$d/$$n.txt || { echo "sweep-cluster: $$n report differs from the solo sweep"; exit 1; }; \
	done; \
	planned=$$(sed -n 's/.*: \([0-9]*\) cells: .* \([0-9]*\) skipped .*/\1 \2/p' $$d/solo.log | awk '{print $$1 - $$2}'); \
	computed=$$(sed -n 's/.* cells: \([0-9]*\) computed,.*/\1/p' $$d/p1.log $$d/p3.log | awk '{s += $$1} END {print s + 0}'); \
	echo "sweep-cluster: the survivors computed $$computed cells of $$planned planned"; \
	[ -n "$$planned" ] && [ $$((computed * 4)) -le $$((planned * 5)) ] || \
		{ echo "sweep-cluster: the survivors computed more than 1.25x the planned cells"; exit 1; }; \
	echo "sweep-cluster: every survivor's export is byte-identical to the solo sweep after a SIGKILLed peer"
	@rm -rf $(SWEEP_CLUSTER_DIR)

# artifacts regenerates the committed outputs in artifacts/ with the
# commands artifacts/README.md lists. Every output is deterministic, and
# cmd/appraise's TestGoldenArtifacts compares the first four byte for
# byte, so a change that moves any of them must regenerate them here.
artifacts:
	$(GO) run ./cmd/appraise -all -runs 50 > artifacts/appraise_all.txt
	$(GO) run ./cmd/appraise -fig 3 -ascii -runs 50 > artifacts/fig3_ascii.txt
	$(GO) run ./cmd/appraise -markdown artifacts/report.md > /dev/null
	$(GO) run ./cmd/appraise -csv artifacts/study.csv > /dev/null
	$(GO) run ./cmd/pcaptool -gen artifacts/websocket_run.pcap -method 3 -browser C -os W
