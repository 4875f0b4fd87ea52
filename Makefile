# Single source of truth for build/test commands: CI (.github/workflows/
# ci.yml) and humans run the same targets.

GO ?= go

.PHONY: all build test race bench bench-json serve lint cover fmt \
	apicheck api-baseline examples quality fuzz crashsafety logcheck \
	perfbench-vet perfbench-smoke loc

# Minimum total statement coverage accepted by `make cover` (percent).
COVER_FLOOR ?= 70

# Per-target budget for `make fuzz`. CI smoke uses the default; the
# nightly workflow raises it.
FUZZTIME ?= 10s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package; the parallel engine's
# correctness tests are written to be meaningful under -race.
race:
	$(GO) test -race ./...

# One-iteration benchmark smoke pass: catches benchmarks that no longer
# compile or crash, without paying for stable timings. Includes the
# shared-scan scoring benchmarks (BenchmarkScoreBatch*).
bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Compile and vet the end-to-end benchmark. perfbench/ is a nested Go
# module (replace privbayes => ../), so ./... never reaches it: without
# this target an internal API change could break the benchmark while
# build, lint and test stay green.
perfbench-vet:
	cd perfbench && $(GO) vet .

# Run each perfbench workload twice at the benchmark's own window
# (BENCHMARK.json), untraced and then traced (--trace 1), and fail
# unless every result line, the last line of a run's output, reads
# "correct":true and "failed":0. perfbench-vet only compiles the
# benchmark; this also runs its output checks (the out-of-core model
# read back through ReadCSV, streams parsed back, fixed-seed stream
# hashes), so a library change that breaks them fails here instead of
# only in paired benchmark runs. The traced run is the one that reports
# the per-layer metrics and checks that the traced fit equals the
# facade's (traced-equals-facade).
perfbench-smoke:
	@set -e; \
	secs=$$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'); \
	for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		for trace in 0 1; do \
			line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds $$secs --trace $$trace | tail -n 1); \
			echo "$$w (trace $$trace): $$line"; \
			if ! echo "$$line" | grep -q '"correct":true' || ! echo "$$line" | grep -Eq '"failed":0[,}]'; then \
				echo "perfbench-smoke: $$w (trace $$trace) is not correct or has failed operations"; exit 1; fi; \
		done; \
	done

# Timed benchmarks, captured machine-readably. Scoring: runs
# BenchmarkScoreBatchShared over the (d, k) grid, the columnar vs
# row-major counting pair and BenchmarkFitGeneral (the Adult-like
# general-mode fit, hierarchy on), and writes per-benchmark ns/op plus
# the columnar speedups to BENCH_scoring.json. Serving: runs BenchmarkServeSynthesize
# (end-to-end HTTP streaming synthesis at n∈{1e4,1e5} × parallelism) and
# writes rows/s per configuration to BENCH_serving.json.
# Each bench run lands in a temp file first so a benchmark failure fails
# the target instead of being masked by the pipe into the converter.
# Curator: ingest, the in-memory and out-of-core fits and the cold and
# incremental refits, five runs each (-count 5); benchjson reports each
# benchmark's median, so a single slow run does not set its figure.
# bench-json also refreshes BENCH_quality.json, but without the
# threshold gate (-check=false): artifact generation must not fail on a
# quality regression — the dedicated `quality` target / CI job owns the
# gating.
bench-json:
	$(GO) run ./cmd/quality -check=false -out BENCH_quality.json
	$(GO) test -run NONE -bench 'BenchmarkScoreBatchShared$$' \
		-benchtime 1s ./internal/score > bench_scoring.out
	$(GO) test -run NONE -bench 'BenchmarkCount(Columnar|RowMajor)$$' \
		-benchtime 1s ./internal/marginal >> bench_scoring.out
	$(GO) test -run NONE -bench 'BenchmarkFitGeneral$$' \
		-benchtime 5x . >> bench_scoring.out
	$(GO) run ./cmd/benchjson -in bench_scoring.out > BENCH_scoring.json
	@rm -f bench_scoring.out
	@cat BENCH_scoring.json
	$(GO) test -run NONE -bench 'BenchmarkServeSynthesize' \
		-benchtime 1s ./internal/server > bench_serving.out
	$(GO) run ./cmd/benchjson -in bench_serving.out > BENCH_serving.json
	@rm -f bench_serving.out
	@cat BENCH_serving.json
	$(GO) test -run NONE -bench '^(BenchmarkQuery|BenchmarkSynthesizeThenScan)$$' \
		-benchtime 1s . > bench_query.out
	$(GO) run ./cmd/benchjson -in bench_query.out > BENCH_query.json
	@rm -f bench_query.out
	@cat BENCH_query.json
	$(GO) test -run NONE -bench 'BenchmarkTelemetryOverhead|BenchmarkServeSynthesizeTelemetry' \
		-benchtime 1s ./internal/telemetry ./internal/server > bench_telemetry.out
	$(GO) run ./cmd/benchjson -in bench_telemetry.out > BENCH_telemetry.json
	@rm -f bench_telemetry.out
	@cat BENCH_telemetry.json
	$(GO) test -run NONE -bench 'BenchmarkCuratorIngest|BenchmarkFit(InMemory|Scanner)|BenchmarkRefit(Cold|Incremental)' \
		-benchtime 1s -count 5 ./internal/curator > bench_curator.out
	$(GO) run ./cmd/benchjson -in bench_curator.out > BENCH_curator.json
	@rm -f bench_curator.out
	@cat BENCH_curator.json

# Statistical quality sweep and regression gate: fits every ground-truth
# scenario at ε ∈ {0.1, 1, 10}, writes BENCH_quality.json (2-way/3-way
# marginal TVD, SVM misclassification, structure recovery), and exits
# non-zero when a calibrated per-scenario threshold is violated. The
# sweep is seeded end to end: repeated runs emit identical JSON.
quality:
	$(GO) run ./cmd/quality -out BENCH_quality.json
	@cat BENCH_quality.json

# Native fuzzing smoke over the untrusted-input parsers — model
# artifacts (core.ReadModelJSON, behind LoadModel), the one CSV/JSONL
# row decoder (FuzzReadCSV drives ReadCSV and ScanCSV, the decoder of
# POST /fit uploads and the CLI; FuzzScanJSONL drives ScanJSONL, the
# decoder of row appends), the row writer's round trip through that
# decoder for every schema SchemaFromSpecs accepts
# (FuzzRowWriterRoundTrip), the WAL framing every daemon start recovers
# (FuzzWALOpen: ledger and row logs), the ledger's record decoder behind
# it (FuzzLedgerReplay), the curator's on-disk row record codec — plus
# the differential counting fuzz pinning the popcount kernel to the
# legacy row-major counts.
# FUZZTIME bounds each target; the nightly workflow runs with a larger
# budget.
fuzz:
	$(GO) test -run NONE -fuzz 'FuzzReadModelJSON$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz 'FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run NONE -fuzz 'FuzzScanJSONL$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run NONE -fuzz 'FuzzRowWriterRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run NONE -fuzz 'FuzzWALOpen$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run NONE -fuzz 'FuzzLedgerReplay$$' -fuzztime $(FUZZTIME) ./internal/accountant
	$(GO) test -run NONE -fuzz 'FuzzAppendRows$$' -fuzztime $(FUZZTIME) ./internal/curator
	$(GO) test -run NONE -fuzz 'FuzzColumnarCounts$$' -fuzztime $(FUZZTIME) ./internal/marginal

# Crash-loop harness over the real binary: kill -9 privbayesd at points
# spread across a curator fit and across the continuous-curation
# lifecycle (row appends + automatic refit), restart over the same
# state dir, and verify no acknowledged append or ε charge is lost,
# nothing double-spends or double-ingests, and the retried idempotent
# fit charges exactly once. Deterministic per-filesystem-op
# crash sweeps live in `go test ./internal/wal ./internal/accountant`;
# this target is the real-process tier-2 gate. CRASHSAFETY_DIR, when
# set, keeps every iteration's state directory for post-mortem.
crashsafety:
	PRIVBAYES_CRASHSAFETY=1 PRIVBAYES_CRASHSAFETY_DIR=$(CRASHSAFETY_DIR) \
		$(GO) test -run 'TestCrashLoop' -v -timeout 20m ./cmd/privbayesd

# Run the synthesis-serving daemon locally: loads models from ./models,
# meters curator fits in the WAL ledger ./models/ledger.wal (not a
# *.json name, so it is never mistaken for a model artifact).
serve:
	@mkdir -p models
	$(GO) run ./cmd/privbayesd -addr :8131 -models-dir models \
		-ledger models/ledger.wal

# API-compatibility gate: the exported surface of the privbayes facade
# must match the checked-in golden file. Any API change — addition or
# break — fails CI until it is declared by regenerating the golden
# (make api-baseline) and committing it with the change.
apicheck:
	$(GO) run ./cmd/apicheck -dir . -golden api/privbayes.txt

api-baseline:
	$(GO) run ./cmd/apicheck -dir . -golden api/privbayes.txt -write

# Build every example as its own binary, so a facade change that breaks
# an example breaks CI even though examples carry no tests.
examples:
	@set -e; for d in examples/*/; do \
		echo "build $$d"; $(GO) build -o /dev/null ./$$d; done

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Log-hygiene gate: non-test code in internal/server must log through
# the injected slog seam (Config.Logger), never straight to
# stdout/stderr — bare prints bypass -log-format/-log-level and lose
# the request ID.
logcheck:
	@out=$$(grep -rnE '(fmt|log)\.Print' internal/server --include='*.go' \
		| grep -v '_test\.go' || true); \
	if [ -n "$$out" ]; then \
		echo "bare fmt.Print*/log.Print* in internal/server (use the slog seam):"; \
		echo "$$out"; exit 1; fi
	@echo "logcheck: internal/server is print-free"

# Coverage with a floor: fails when total statement coverage drops
# below COVER_FLOOR percent. The profile lands under build/ (ignored)
# instead of littering the repo root; CI uploads it as an artifact.
cover:
	@mkdir -p build
	$(GO) test -coverprofile=build/coverage.out ./...
	@total=$$($(GO) tool cover -func=build/coverage.out | tail -1 | \
		sed -E 's/.*[[:space:]]([0-9]+(\.[0-9]+)?)%$$/\1/'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	ok=$$(awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN{print (t+0 >= f+0) ? 1 : 0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; fi

fmt:
	gofmt -w .

# Size report: non-test Go lines outside perfbench/, per package
# directory and in total — the figure simplicity changes quote before
# and after. It only reports; nothing gates on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); \
			n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
			printf "%6d  total\n", t }'
