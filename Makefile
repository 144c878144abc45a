GO ?= go

# Benchmarks tracked in BENCH_eval.json: the eval/chase hot-path families.
BENCH_PATTERN ?= BenchmarkE2|BenchmarkE3|BenchmarkE4|BenchmarkE5|BenchmarkE6|BenchmarkE7|BenchmarkE9|BenchmarkAblation_CompiledEval|BenchmarkAblation_StreamingEval|BenchmarkAblation_ShardedEval|BenchmarkAblation_PreserveDerive|BenchmarkAblation_IncrementalChurn|BenchmarkAblation_TerminationFastPath|BenchmarkIncrementalVsReEval|BenchmarkServiceWarmVsCold
BENCHTIME ?= 0.3s

# staticcheck pin for lint-ci; bump deliberately, not implicitly.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet datalog-vet test race race-service race-shard race-ivm serve-smoke bench bench-all experiments examples lint lint-ci clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# datalog-vet runs the repository's own static analyzer over the shipped
# example programs; any error-severity finding fails the build. The seeded
# defect corpus under testdata/vet/ is exercised separately by the golden
# tests in cmd/datalog.
datalog-vet:
	$(GO) run ./cmd/datalog vet testdata/*.dl

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-service race-checks the multi-tenant service stack: the session
# facade, the HTTP layer and the copy-on-freeze snapshots they evaluate.
race-service:
	$(GO) test -race ./internal/core ./internal/service ./internal/db

# race-shard race-checks the sharded round executor's determinism contract:
# the byte-identity grid over Shards × Workers × Strategy, goal prefix-cut
# partial databases, budget agreement, the maintained-view insertion oracle
# and the shard-aware stats accounting.
race-shard:
	$(GO) test -race -run 'TestSharded|TestShardOwner|TestShardView' ./internal/eval ./internal/db

# race-ivm race-checks the incremental view maintenance stack: the
# counting/DRed maintenance engine and its randomized oracle grid, the
# tombstone/compaction machinery in the store, session Apply diffs and the
# subscription fan-out in the service layer.
race-ivm:
	$(GO) test -race -run 'TestMaintain|TestCompact|TestRemove|TestFreeze|TestCounts|TestSession|TestSubscri|TestFactsEnvelope' ./internal/eval ./internal/db ./internal/core ./internal/service

# serve-smoke boots `datalog serve` on an ephemeral port with a preloaded
# program and drives a register/facts/eval/statz round-trip over HTTP.
serve-smoke:
	$(GO) test ./cmd/datalog -run 'TestServeCommand' -count=1 -v

# bench runs the eval/chase benchmark families and records ns/op, B/op and
# allocs/op per benchmark in BENCH_eval.json so the perf trajectory is
# tracked from PR to PR. -cpu=1 keeps go test from appending a GOMAXPROCS
# suffix, so names are the same on every machine; benchjson fails on a
# duplicate name.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=$(BENCHTIME) -cpu=1 . | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_eval.json

bench-all:
	$(GO) test -bench=. -benchmem .

experiments:
	$(GO) run ./cmd/experiments -run all

# lint runs go vet always and staticcheck when the binary is on PATH (the
# dev container does not bake it in; lint-ci installs the pinned version).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-ci installs it)"; \
	fi

lint-ci:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	PATH="$$($(GO) env GOPATH)/bin:$$PATH" $(MAKE) lint

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/minimize
	$(GO) run ./examples/equivalence
	$(GO) run ./examples/magic
	$(GO) run ./examples/stratified
	$(GO) run ./examples/pointsto
	$(GO) run ./examples/authz
	$(GO) run ./examples/incremental

clean:
	$(GO) clean ./...
