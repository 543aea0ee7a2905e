# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check bench-gate` locally means
# a green pipeline.

# pipefail so `go test | tee` recipes fail when the test run fails, not just
# when tee does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# The benchmarks the regression gate watches: join pipeline, the five
# learners' columnar fits, the serving paths, the GEMM-vs-scalar compute-kernel pairs (SVM Gram build, batched
# ANN serving), the zone-map skips, the segmented-vs-slab parity pairs, and
# the concurrent-serving quartet (uncoalesced vs coalesced vs
# factorized-linear vs the hardened entry — admission gate + panic recovery
# — under 64 clients). cmd/benchgate's defaultGate must stay equal to it
# (its TestDefaultGateMatchesMakefile checks).
BENCH_REGEX = Benchmark(Join(Materialized|View)|(NBFit|TreeSplit|LogRegFit|SVMFit|ANNFit)Columnar|Serve(Factorized|Joined)|SVMKernelCache(Scalar|Gemm)|ServeBatch(Scalar|Gemm)|SelectEqSeg(FullScan|ZoneSkip)|TreeSplitZoneSkip|SegParScan(Slab|Seg)|(NBFit|TreeSplit)Segmented|ServeConcurrent(Scalar|Coalesced|Factorized|Hardened))$$
# Time-based benchtime so every bench accumulates several iterations per
# sample — the nanosecond-scale Serve* benches get millions, the ~100ms Fit
# benches get a handful — and -count 5 gives benchgate a median that shrugs
# off scheduler spikes. The full sweep takes ~2 minutes on one core.
BENCH_FLAGS = -run xxx -bench '$(BENCH_REGEX)' -benchtime 1s -count 5 -benchmem .

.PHONY: check test bench bench-baseline bench-gate lint fuzz-smoke load

check: lint test

# The second line runs the Adam kernel's pure-Go fallback (non-amd64) the
# way CI does: its tests under GOARCH=386, and vet of the arm64 build.
test:
	go build ./... && go test ./...
	GOARCH=386 go test ./internal/mat ./internal/ann && GOARCH=arm64 go vet ./internal/mat ./internal/ann

bench:
	go test $(BENCH_FLAGS)

# bench-baseline refreshes the committed regression baseline. Run it on a
# quiet machine after a deliberate performance change, commit the result, and
# mention the change in the PR so reviewers know the bar moved. The absolute
# ns/op comparison assumes baseline and gate run on comparable hardware —
# refresh the baseline from a CI run's bench_current.txt artifact if the
# runner class changes (the within-run pair-speedup check is
# machine-independent either way).
bench-baseline:
	go test $(BENCH_FLAGS) | tee bench_baseline.txt

# bench-gate reproduces CI's benchmark-regression gate: >20% median ns/op
# regression on any gated benchmark vs bench_baseline.txt fails (this alone
# bounds the learners' single training paths and the tree's zone-map skip),
# as does any pair group without a winner — a >=1.5x SVM Gram-build kernel
# win, a >=1.5x segment zone-map skip win, segmented-engine parity at
# >=0.95x vs the monolithic slab, a >=2x coalesced-vs-scalar
# concurrent-serving win — and 0 allocs/op on the coalesced and
# factorized-linear serving paths.
#
# BENCH_JSON=<path> additionally writes the gated medians (ns/op, allocs/op)
# as a machine-readable JSON digest — the committed BENCH_<n>.json artifacts.
bench-gate:
	go test $(BENCH_FLAGS) | tee bench_current.txt
	go run ./cmd/benchgate -baseline bench_baseline.txt -current bench_current.txt $(if $(BENCH_JSON),-json $(BENCH_JSON))

# load runs the closed-loop serving load harness against a freshly trained
# artifact: train Naive Bayes on the Movies sample, start hamletd, drive it
# at the default 64 connections for a short burst, and print the latency
# quantiles, throughput, allocation rate, and coalescer fill report.
# Override duration/conns with LOAD_FLAGS="-duration 30s -conns 128"; the
# default -scrape adds the server's own /metrics view: counter deltas and
# bucket-derived latency quantiles next to the client-side percentiles.
LOAD_FLAGS = -duration 3s -warmup 500ms -scrape
load:
	go build -o . ./cmd/hamletd ./cmd/hamletload ./cmd/hamlet
	./hamlet -train -dataset Movies -spec "NaiveBayes(BFS)" -scale 64 -model /tmp/load_model.bin
	./hamletd -model /tmp/load_model.bin -addr 127.0.0.1:8099 & \
	  HPID=$$!; trap "kill $$HPID" EXIT; sleep 0.3; \
	  ./hamletload -addr 127.0.0.1:8099 $(LOAD_FLAGS)

lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./...
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# fuzz-smoke executes the committed fuzz corpora plus a short randomized
# burst for each fuzzer — the same step CI runs.
fuzz-smoke:
	go test ./internal/model -run xxx -fuzz 'FuzzCodecRoundTrip$$' -fuzztime 20s
	go test ./internal/model -run xxx -fuzz 'FuzzDecodeGarbage$$' -fuzztime 20s
	go test ./internal/relational -run xxx -fuzz 'FuzzSegmentedEquivalence$$' -fuzztime 20s
	go test ./internal/mat -run xxx -fuzz 'FuzzMatEquivalence$$' -fuzztime 20s
