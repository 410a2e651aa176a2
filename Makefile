GO ?= go

.PHONY: build test test-race bench bench-smoke vet fmt fmt-check golden golden-fs bench-fs golden-ip bench-ip bench-perf bench-baseline bench-scale bench-scale-full bench-scale-baseline tbaad-smoke tbaad-chaos profile cover api api-check examples deps-check fuzz perfbench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The optimizer's passes fan procedures across GOMAXPROCS workers; the
# second run race-checks both the one-worker loop and the fan-out on
# any runner. The third does the same for the flow solves CountPairs
# fans out, whose solvers share a pool of scratch.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 ./internal/opt ./internal/randprog
	$(GO) test -race -cpu 1,4 -run 'Flow|CountPairs' ./internal/alias

# Full benchmark sweep (one iteration each; see bench_test.go for the
# per-table/figure benchmarks and internal/alias for the oracle ones).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The CI smoke: oracle microbenchmarks must at least run.
bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkMayAlias -benchtime=1x ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerating Table 4 must reproduce the checked-in golden byte for byte.
golden: build
	$(GO) run ./cmd/tbaabench -table 4 | diff -u internal/bench/testdata/table4.golden -

# Table FS (the flow-sensitive refinement vs SMFieldTypeRefs) has its
# own golden; byte-stable for any -parallel value.
golden-fs: build
	$(GO) run ./cmd/tbaabench -table fs | diff -u testdata/tablefs.golden -

# The per-PR precision-trajectory artifact CI uploads.
bench-fs: build
	$(GO) run ./cmd/tbaabench -fsjson BENCH_fs.json

# Table IP (the interprocedural layer vs FSTypeRefs vs SMFieldTypeRefs)
# has its own golden; byte-stable for any -parallel value.
golden-ip: build
	$(GO) run ./cmd/tbaabench -table ip | diff -u testdata/tableip.golden -

bench-ip: build
	$(GO) run ./cmd/tbaabench -ipjson BENCH_ip.json

# The tracked perf gate: run the tier-1 query benchmarks -count times
# and fail on >20% ns/op regression against the committed baseline.
# Refresh the baseline with bench-baseline (and commit it) when a
# deliberate change or new hardware moves the numbers.
BENCH_COUNT ?= 5
BENCH_TIME ?= 300ms
TRACKED_BENCH = BenchmarkMayAlias$$|BenchmarkCountPairs$$|BenchmarkRebuildOneProc$$
bench-perf:
	$(GO) test ./internal/alias -run=NONE -bench='$(TRACKED_BENCH)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee bench_current.txt
	$(GO) run ./cmd/benchguard -baseline testdata/bench_perf_baseline.txt -current bench_current.txt -threshold 0.20

bench-baseline:
	$(GO) test ./internal/alias -run=NONE -bench='$(TRACKED_BENCH)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee testdata/bench_perf_baseline.txt

# The scale gate: sweep generated 10k-100k-line modules (plus the
# lower-vm megabenchmark) through compile, summary construction, and
# every analysis level, write BENCH_scale.json, then fail if any
# (level, op) growth exponent — the log-log slope of ns/op against
# module lines — exceeds its hard cap or the committed baseline's
# exponent plus a margin. Exponents are machine-independent, so the
# committed baseline (testdata/bench_scale_baseline.json) gates any
# hardware. bench-scale is the trimmed per-PR sweep (two sizes);
# bench-scale-full is the nightly three-size sweep.
bench-scale: build
	$(GO) run ./cmd/tbaabench -scalejson BENCH_scale.json
	$(GO) run ./cmd/benchguard -scale -baseline testdata/bench_scale_baseline.json -current BENCH_scale.json

bench-scale-full: build
	$(GO) run ./cmd/tbaabench -scalejson BENCH_scale.json -scalesweep full
	$(GO) run ./cmd/benchguard -scale -baseline testdata/bench_scale_baseline.json -current BENCH_scale.json

# Refresh the committed scale baseline (and commit it) after a
# deliberate scaling change. Uses the same trimmed sweep the per-PR
# gate runs, so baseline and gate fit exponents over identical sizes.
bench-scale-baseline: build
	$(GO) run ./cmd/tbaabench -scalejson testdata/bench_scale_baseline.json

# End-to-end smoke of the analysis server: build tbaad + tbaactl,
# start the daemon on a kernel-assigned port, upload a stock
# benchmark, run single/batch/countpairs queries, scrape /metrics
# (kept as tbaad_metrics.txt — CI uploads it as an artifact), then
# SIGTERM and require a clean drain.
tbaad-smoke:
	./scripts/tbaad_smoke.sh

# Chaos harness: run the fault-injection tests under the race detector
# (panic isolation, quarantine, memory watermark, drain-mid-edit,
# artifact corruption), then drive the built daemon through the same
# degradation ladder end to end with -faults armed. Metrics from every
# chaos phase land in tbaad_chaos_metrics.txt (CI uploads it).
tbaad-chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestHandlerPanic|TestMemoryWatermark|TestReadyz|TestDrainWithInflightEdit|TestInjected' ./internal/fault ./internal/artifact ./internal/server
	./scripts/tbaad_chaos.sh

# pprof evidence for perf PRs: profile the Table 5 sweep (the pair
# counters are the query-heaviest artifact).
profile: build
	$(GO) run ./cmd/tbaabench -cpuprofile cpu.pprof -memprofile mem.pprof -table 5 > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with 'go tool pprof cpu.pprof'"

# Coverage floors on the packages the interprocedural layer and the
# analysis server live in; raise the floor as tests accrue, never
# lower it to ship.
COVER_FLOOR_MODREF ?= 75
COVER_FLOOR_ALIAS  ?= 75
COVER_FLOOR_SERVER ?= 75
cover:
	@check() { \
		out=$$($(GO) test -cover $$1) || { echo "$$out"; echo "$$1: tests failed"; exit 1; }; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$1: no coverage output"; exit 1; fi; \
		echo "$$1 coverage: $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' \
			|| { echo "$$1 coverage fell below the $$2% floor"; exit 1; }; \
	}; \
	check ./internal/modref $(COVER_FLOOR_MODREF) && \
	check ./internal/alias $(COVER_FLOOR_ALIAS) && \
	check ./internal/server $(COVER_FLOOR_SERVER)

# The public API surface, as seen by `go doc -all tbaa`. Drift fails CI
# until the golden is regenerated (make api) and the diff reviewed.
api:
	$(GO) doc -all tbaa > testdata/api.golden

api-check:
	@$(GO) doc -all tbaa | diff -u testdata/api.golden - \
		|| { echo "public API drifted from testdata/api.golden; run 'make api' and review the diff"; exit 1; }

# The library and the daemon link no test or harness code: fail if
# testing, the random-program generator or the evaluation harness is
# among their dependencies.
deps-check:
	@bad="$$($(GO) list -deps . ./cmd/tbaad | grep -Ex 'testing|tbaa/internal/randprog|tbaa/internal/eval')"; \
	if [ -n "$$bad" ]; then echo "package tbaa or cmd/tbaad links:"; echo "$$bad"; exit 1; fi

# Native fuzzing of the front end: Compile must never panic or hang,
# and must reject bad input with a positioned *ParseError/*CheckError.
# Crashers are committed under testdata/fuzz/ and rerun by make test.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzCompile -fuzztime=30s .

# perfbench/ is a module of its own that imports the internal front
# end and analysis packages. go build ./... and go test ./... never see
# it, so an internal API change could break the benchmark unseen; vet
# builds it and its own tests run it.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Examples compile under go build ./...; vet them explicitly too.
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

ci: build vet perfbench-check fmt-check deps-check test-race bench-smoke golden golden-fs bench-fs golden-ip bench-ip bench-perf bench-scale tbaad-smoke tbaad-chaos cover api-check examples fuzz
