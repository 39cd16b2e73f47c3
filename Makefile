# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keeping them here means one invocation works identically on a
# laptop and in the workflow.

GO ?= go

.PHONY: build test race crash allocs lint vet cover bench spine loc figures clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repo-wide race sweep: -short skips the multi-second chaos and
# simulation suites, which CI runs in full in their dedicated race steps.
race:
	$(GO) test -race -short ./...

# The storage crash suites under the race detector: hook-based crash points
# (including the mid-batch flush threshold) and the batched kill -9 chaos.
# Run for any change to internal/lsm or to the kvstore write path.
crash:
	$(GO) test -race ./internal/lsm -run 'Crash|KillNine'

# Every allocation pin, non-short and without the race detector (whose
# instrumentation allocates): the hot-path zero-alloc round trips and the
# per-op budgets of the cluster read, write and compaction paths, and the
# RESP server's pipelined commands. Run for any change to a read, write,
# storage or gateway path.
allocs:
	$(GO) test -count=1 -run 'AllocBudget|ZeroAllocs' ./internal/core ./internal/wire ./internal/lsm ./internal/kvstore ./internal/resp

# c3vet over the whole tree (plus staticcheck/govulncheck when installed).
lint:
	./scripts/lint.sh

# go vet with the c3vet analyzers only — the fast inner-loop check.
vet:
	mkdir -p bin
	$(GO) build -o bin/c3vet ./cmd/c3vet
	$(GO) vet -vettool=$(CURDIR)/bin/c3vet ./...

cover:
	./scripts/coverage_floor.sh

bench:
	$(GO) test ./internal/kvstore -run xxx -bench 'BenchmarkCluster' -benchtime 1000x

# The measurement spine (BENCHMARK.json): all four workloads, untraced and
# traced, into benchmark/out/latest. Compare two sets with
# benchmark/bench.sh compare A/result.json B/result.json.
spine:
	benchmark/run.sh

# Non-test, non-blank, non-comment Go lines per package — the figure a
# simplification is judged by. PKG narrows it: make loc PKG=internal/kvstore
loc:
	./scripts/loc.sh $(PKG)

# Every simulated paper figure at quick scale, timing lines stripped: the
# byte-for-byte check for a change to the selection path. Compare with the
# parent's output using cmp.
figures:
	./scripts/figures.sh

clean:
	rm -rf bin
