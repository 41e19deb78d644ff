# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build cross vet fmt fmt-check loc lint test race chaos fuzz-smoke sweep-smoke cluster-smoke figures-smoke bench-check check bench bench-smoke bench-baseline figures examples clean

all: check

build:
	$(GO) build ./...

# Keep the builds that take no Linux-only path compiling: trace slabs,
# cache arrays and Pythia's vaults are anonymous mappings on Linux and
# ordinary heap everywhere else (internal/offheap/mmap_*.go).
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fail (and list the offending files) if any tracked Go file is not
# gofmt-clean; CI runs this so formatting never drifts.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Non-test Go lines per internal/ package and for cmd/: the size the
# "small" aim of ROADMAP.md is measured in (item 3 quotes it), plus the
# serving stack's subtotal (server, sweep, cluster, client, persist),
# which ROADMAP.md tracks against its target. CI prints it in the build
# job so a PR's line delta is read off two logs, not counted by hand.
SERVING := internal/server internal/sweep internal/cluster internal/client internal/persist
loc:
	@for d in internal/*/ cmd/; do \
		printf '%7d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done; \
	printf '%7d  serving\n' "$$(find $(SERVING) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	printf '%7d  total\n' "$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

# Lint gate: go vet always, plus staticcheck (configured by
# staticcheck.conf) when the binary is available. CI installs
# staticcheck explicitly; local machines without it still get vet so
# the target never demands a network fetch.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH; ran go vet only (CI runs both)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos suite: the serving-stack resilience tests (panic isolation,
# graceful drain, crash-safe cache and sweep persistence, mid-sweep
# worker death, client retries, and the cluster failure detector's own
# schedule-sensitive tests) under the race detector with fault
# injection activated through the environment. The seeded slow-job fault stretches every 5th run to
# shake out drain/timeout races; counter- and PRNG-based rules are
# deterministic, so a red run reproduces exactly from the same seed.
# The second line repeats the same-key tests (one content key wanted by
# two sweeps, an interactive job, a cell out on a peer — see
# samekey_test.go) and the unhealthy-peer routing test (boot-time
# repairs and write-backs run beside it) twenty times: what they pin
# depends on the schedule, so one pass proves little.
chaos:
	MAMA_FAULTS="server/worker/slow=every:5" MAMA_FAULTS_SEED=7 \
		$(GO) test -race -count=1 ./internal/faultinject ./internal/cluster ./internal/server ./internal/client ./internal/sweep
	MAMA_FAULTS="server/worker/slow=every:5" MAMA_FAULTS_SEED=7 \
		$(GO) test -race -count=20 -run '^(TestSameKey.*|TestUnhealthyPeerIsSkipped)$$' ./internal/server

# Ten seconds of coverage-guided fuzzing per target on the parsers of
# untrusted shape: in the trace layer the run-length packer (pack then
# expand is the identity, through every read surface); in the sweep layer
# the POST /v1/sweeps body (Expand and ID never panic, stay inside the
# cell budget and are deterministic) and the result stream's line codec
# (the encoder byte for byte what json.Marshal would emit, the parser
# accepting what json.Unmarshal accepts, with the same value); in
# the experiment layer the controller key any cell carries (parse then
# canonicalise is a fixed point inside the length bound, and what parses
# builds); in the cache layer the set-associative cache against its
# timestamp-LRU reference model (every lookup, victim, MSHR count and
# counter equal, over geometries from 1 to 16 ways and 8- to 128-byte
# lines); in the server layer one line of the result cache's stamped log
# (any bytes are quarantined byte for byte, or load as one entry under
# a job key that serves its result's JSON) and
# the key table's cell index (a cell admitted twice gets the key the job
# path gives it, or is refused with the job path's error and never
# indexed); in the persist layer a store's log as any bytes (a log
# without the stamp is set aside byte for byte; in a stamped one every
# non-empty line loads under the key it claims or is quarantined byte
# for byte; a save on top survives a restart), and back in the sweep
# layer that log resumed by the sweep manager (no cell reads done or
# deduped without its result, a finished sweep streams each cell once,
# and a second restart resumes it alike) and the manager's lifecycle
# against a reference model that stores the whole completion order
# (views, events and saved headers equal).
# `go test` alone only replays the seed corpus. One target per
# invocation is a `go test -fuzz` rule. Each new input is minimized for
# at most a second: at go test's default of a minute, one minimization
# of a target whose every run starts a store on disk (FuzzSweepResume)
# outlasts the whole ten seconds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPackRoundTrip$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSweepSpec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzEventLine$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzParseLine$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzControllerKey$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/experiment
	$(GO) test -run '^$$' -fuzz '^FuzzCacheVsReference$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzCellIndex$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzStoreLog$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzSweepResume$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzSweepLifecycle$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sweep

# Tiny real sweep driven end to end against an in-process server:
# submit → stream → restart over the same cache dir → same-cells
# resubmission answered entirely from the warm cache with zero new
# simulations, and the resumed and warm streams byte-equal to the cold
# one, key and result per cell. See scripts/sweepsmoke.
# Smoke targets capture their output to <name>.out (portably preserving
# the exit status) so CI can upload the file as a failure artifact.
sweep-smoke:
	@$(GO) run ./scripts/sweepsmoke > sweep-smoke.out 2>&1; st=$$?; \
		cat sweep-smoke.out; exit $$st

# Three sharded in-process nodes (one fixed peer list) driven end to
# end: a cold sweep submitted to node A is routed across the
# consistent-hash ring (every cell simulated exactly once
# cluster-wide), the same cells resubmitted to node C complete with
# zero new simulations served by cross-shard cache fetches, then a
# churn phase kills node B mid-sweep, the cells sent to B held until the
# kill (exactly-once completion on the survivors, simulations per cell
# printed) and restarts it (/healthz
# answered, boot repair settled, warm resubmission with zero new
# simulations). Last, on a second trio with the default
# per-peer slots, a sweep whose every cell is owned by the node that
# receives it must put all three nodes to work (the per-node simulation
# counts are printed and must add up to the cells). See
# scripts/clustersmoke.
cluster-smoke:
	@$(GO) run ./scripts/clustersmoke > cluster-smoke.out 2>&1; st=$$?; \
		cat cluster-smoke.out; exit $$st

# Every experiment id through the real binary at the tiny scale:
# `mamabench -scale tiny -json <tmp> all` must exit 0, write one JSON
# file per emitting id (a report holding a NaN does not encode, so its
# file goes missing), and print no NaN. The cell figures among them run
# through the same registry, Executor and reducers as at any scale, so
# this is the end-to-end guard of `make figures`. A second pass over the
# cell-figure ids alone, the tournament too (`all` leaves it out), reads
# the Runner's books from -metrics-dump: every simulation started is a baseline miss or a cell
# miss of its one memo (nothing is simulated twice, nothing off the
# books), and no profile is ever simulated, because each profiled mix's
# "no" cell is among the figures' own cells.
CELL_FIGURES = fig9 fig10 fig11 fig13 fig14 fig15a fig15b fig16 sec63 \
	abl-theta abl-tarbit abl-lcb abl-kstep tournament
FIGURE_JSON = fig2 fig3 fig4 fig9 fig10-WS-4C fig10-HS-4C fig10-WS-8C fig10-HS-8C \
	fig11 fig12 fig13 fig14 fig15a fig15b fig16 sec63 \
	abl-theta abl-tarbit abl-lcb abl-kstep

figures-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/mamabench -scale tiny -json $$tmp all > figures-smoke.out 2>&1; st=$$?; \
	for id in $(FIGURE_JSON); do \
		test -s $$tmp/$$id.json || { echo "figures-smoke: FAIL: no $$id.json written" >> figures-smoke.out; st=1; }; \
	done; \
	$(GO) run ./cmd/mamabench -scale tiny -metrics-dump $$tmp/metrics $(CELL_FIGURES) > /dev/null 2>> figures-smoke.out || st=1; \
	series() { awk -v s="$$1" '$$1 == s { print $$2; found = 1 } END { if (!found) print -1 }' $$tmp/metrics; }; \
	runs=$$(series mama_sim_runs_total); \
	bases=$$(series 'mama_experiment_cache_misses_total{cache="baseline"}'); \
	cells=$$(series 'mama_experiment_cache_misses_total{cache="cell"}'); \
	profiles=$$(series 'mama_experiment_cache_misses_total{cache="profile"}'); \
	echo "figures-smoke: cell figures started $$runs simulations = $$bases baselines + $$cells cells; $$profiles profile runs" >> figures-smoke.out; \
	if [ "$$runs" -lt 1 ] || [ "$$runs" -ne $$((bases + cells)) ] || [ "$$profiles" -ne 0 ]; then \
		echo "figures-smoke: FAIL: want simulations = baseline misses + cell misses > 0, and 0 profile misses" >> figures-smoke.out; st=1; \
	fi; \
	rm -rf $$tmp; \
	if grep -q NaN figures-smoke.out; then echo "figures-smoke: FAIL: NaN in a report" >> figures-smoke.out; st=1; fi; \
	[ $$st -ne 0 ] || echo "figures-smoke: PASS" >> figures-smoke.out; \
	cat figures-smoke.out; exit $$st

# The repository benchmark (bench/, a Go module of its own that tier-1
# `go build ./... && go test ./...` does not reach) still compiles
# against this tree and passes its own tests: unit tests plus a
# seconds-long smoke of all six mamaload workloads, ≈ 15 s. A change
# that breaks one of bench/README.md's load-bearing signatures fails
# here instead of in the benchmark driver.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The default gate: compile everything (for Windows and macOS too),
# lint (vet + staticcheck when available), check formatting, run the test suite, re-run it under the
# race detector, run the chaos suite with fault injection enabled,
# fuzz the trace packer, the sweep spec, the stream's line encoder and parser, the controller
# key and the cache against its reference for ten seconds each,
# drive a real
# sweep, the 3-node cluster and every figure id end to end, check the bench/ module against this tree, then make sure
# the hot-path benchmarks still run and stay allocation-free (1
# iteration; catches bit-rot and alloc regressions, not timing
# regressions).
check: build cross lint fmt-check test race chaos fuzz-smoke sweep-smoke cluster-smoke figures-smoke bench-check bench-smoke

# Hot-path benchmark suite: cache/MSHR microbenchmarks (one at the
# Table 3 LLC geometry over twice its capacity), the per-core
# advance benchmarks, end-to-end simulator throughput, and five
# service-path benchmarks (one anti-entropy cache page; client
# connection reuse; one job key's hash; a fully cached 512-cell sweep's
# admission, and its result stream) with the stream's two codec halves on one line
# (BenchmarkEventAppend, BenchmarkParseLine), compared against the
# checked-in baseline (report
# only: nothing here fails the build; bench-smoke is the gate).
# Regenerate the baseline on a quiet machine with `make bench-baseline`.
BENCH_PATTERN = BenchmarkLookup|BenchmarkFillEvict|BenchmarkLLCWorkingSet|BenchmarkMarkDirty|BenchmarkCoreAdvance|BenchmarkSimulatorThroughput|BenchmarkTrace|BenchmarkCachePullPage|BenchmarkClientConnReuse|BenchmarkJobKey|BenchmarkSweepSubmitWarm|BenchmarkSweepStream|BenchmarkEventAppend|BenchmarkParseLine|BenchmarkParseLineSingle
BENCH_PKGS    = ./internal/cache ./internal/sim ./internal/trace ./internal/sweep ./internal/server ./internal/client .

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | tee bench.out
	$(GO) run ./scripts/benchdiff bench.out

# One iteration of every hot-path benchmark, gated on allocs/op and on
# BenchmarkTraceReplayPacked's B/instr (the trace slab's density, which
# must not grow at all): both are deterministic even at -benchtime=1x,
# while ns/op at one iteration is noise — so this stays green on busy
# machines and CI runners but still fails if the allocation-free
# invariant or the packing breaks. Zero-baseline benches are strict regardless of
# tolerance (0 -> any alloc fails); the generous -tol only gives slack
# to benches that legitimately allocate, whose per-op counts are
# setup-dominated at a single iteration (SimulatorThroughput reads
# ~135 allocs/op at 1x vs 40 at full benchtime). Packages run one at a
# time (-p 1): next to the server package's test binary building and
# running, a single-iteration zero-alloc bench picks up stray runtime
# allocations and trips the strict gate.
bench-smoke:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime=1x -benchmem $(BENCH_PKGS) | tee bench-smoke.out
	$(GO) run ./scripts/benchdiff -tol 4 bench-smoke.out

bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=3 $(BENCH_PKGS) | tee bench.out
	$(GO) run ./scripts/benchdiff -update bench.out

# Regenerate the paper's figures (text + SVG + JSON) at default scale.
figures:
	$(GO) run ./cmd/mamabench -scale default -svg figures -json data all

examples:
	$(GO) run ./examples/quickstart

clean:
	rm -f bench.out bench-smoke.out micromama.test *.test
	rm -f sweep-smoke.out cluster-smoke.out figures-smoke.out
