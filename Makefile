GO ?= go

.PHONY: build test vet lint race chaos fuzz reach verify bench report report-untimed loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint gates on vet plus gofmt: any file gofmt would rewrite fails the
# target and is listed.
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# race exercises every parallelised stage (the parallel engine, fleet
# simulation, the fused clean+cumulate frame pipeline, the MFPAC block
# codec, labelling, extraction, training, sampling views, the pipeline
# front-end, search, the sharded serving engine and its state restore,
# the pooled tree growers and the seeded generator) under the race detector;
# determinism tests double as ordering checks. The experiments line runs
# only the tests that drive the concurrent model trainings of the paper
# reproduction: the whole package under -race takes minutes.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/parallel ./internal/simfleet ./internal/ml/... ./internal/rng ./internal/dataset ./internal/labeling ./internal/ingest ./internal/features ./internal/sampling ./internal/core ./internal/serve ./internal/fleetops ./internal/atomicio ./internal/faultinject
	$(GO) test -race -run 'WorkersRenderIdentically|TrainAllDedupsAndNamesFirstFailure|CachesOrderIndependentAndShared' ./internal/experiments

# chaos runs the fault-tolerance suite under the race detector: seeded
# record corruption, scorer/swap/observe fault seams, crash-safe
# persistence, kill-and-resume of the scorer, and quarantine
# determinism across worker/shard counts.
chaos:
	$(GO) test -race -run 'Chaos|Corrupt|Fault|Quarantine|Revive|Degraded|Retr|Crash|Torn|KillMidWrite|StateFile|Atomic|WriteFile|Open|Hooks|Resume' \
		./internal/atomicio ./internal/faultinject ./internal/serve ./internal/ingest ./internal/dataset ./internal/modelio

# fuzz runs each fuzz target for a short fixed budget, one go test call
# per target (go test accepts only one -fuzz target per package run):
# the MFPAC container reader, the MFPAC block decoder on its own (past
# the CRCs), the flattened tree kernel against the pointer walk, the
# differential kernel for drive-ordered rows against the direct one,
# and interleaved resumable runs (one per drive, as serving keeps them)
# against the direct one, the seeded generator's streams against
# math/rand's for any seed, and the scorer's state decoder on arbitrary
# bytes.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadMFPAC$$' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMFPACBlock$$' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzFlatVsPointer$$' -fuzztime 10s ./internal/ml/predict
	$(GO) test -run '^$$' -fuzz '^FuzzDifferentialVsDirect$$' -fuzztime 10s ./internal/ml/predict
	$(GO) test -run '^$$' -fuzz '^FuzzRunResumeVsDirect$$' -fuzztime 10s ./internal/ml/predict
	$(GO) test -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 10s ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzLoadState$$' -fuzztime 10s ./internal/serve

# reach builds every main package (the module's and bench/'s) with the
# linker's dependency dump and lists each non-test function no binary
# reaches. It fails unless every one is on tools/reach/allowlist.txt,
# with its reason, and every allowlist entry is still unreached.
reach:
	$(GO) run ./tools/reach

# verify is the full local gate: build, lint, unit tests, chaos suite,
# reachability.
verify: build lint test chaos reach

# bench runs the package micro-benchmarks. The end-to-end benchmark
# (workloads, gates, per-layer breakdown) lives in bench/; see
# bench/README.md and BENCHMARK.json.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/parallel ./internal/simfleet ./internal/dataset ./internal/features ./internal/ml ./internal/ml/search ./internal/ml/predict ./internal/ml/tree ./internal/ml/forest ./internal/ml/gbdt ./internal/ml/nn ./internal/core ./internal/serve ./internal/rng

report:
	$(GO) run ./cmd/mfpareport -scale 0.2

# report-untimed prints `mfpareport -scale 0.1 -seed 1` without its
# timing fields, so two builds' reports can be diffed: the header's
# elapsed time, the "(name in T)" lines, and Fig 20's Time column and
# prediction rate (and the dash rule whose widths they set). An empty
# diff between two builds means identical results.
report-untimed:
	@report=$$($(GO) run ./cmd/mfpareport -scale 0.1 -seed 1) && \
	printf '%s\n' "$$report" | awk ' \
		NR == 1 { sub(/, [^,]*\)$$/, ")") } \
		/^\([^ ]+ in [^)]*\)$$/ { next } \
		/^== Fig 20:/ { fig20 = 1; print; next } \
		fig20 && /^$$/ { fig20 = 0 } \
		fig20 && /^-/ { next } \
		fig20 { split($$0, c, /  +/); sub(/^\([0-9]+ /, "(N ", c[4]); print c[1] "  " c[2] "  " c[4]; next } \
		{ print }'

# loc prints the Go line counts the roadmap's gates quote, all outside
# bench/: non-test code (test-support packages excluded), the
# test-support packages only _test.go files import (internal/ml/mltest),
# and _test.go files.
TEST_SUPPORT := ./internal/ml/mltest
loc:
	@printf '%-40s %7d\n' 'non-test Go (outside bench/):' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '$(TEST_SUPPORT)/*' -exec cat {} + | wc -l)
	@printf '%-40s %7d\n' 'test support ($(TEST_SUPPORT)):' \
		$$(find $(TEST_SUPPORT) -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-40s %7d\n' '_test.go (outside bench/):' \
		$$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)
