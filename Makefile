# aggview build/test targets. Pure Go, stdlib only.

GO ?= go

.PHONY: build vet staticcheck test race stress crash fuzz bench bench-smoke bench-diff gobench docs-check check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; local runs
# without it skip with a notice rather than fail — the repo adds no module
# dependency for it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress runs the engine-level concurrency suite (mixed-mode queries,
# budget isolation, racing cursors, DDL vs readers, snapshot-pinned
# cursors under committing writers, and multi-statement transactions)
# twice under the race detector, so flaky interleavings get a second
# chance to surface.
stress:
	$(GO) test -race -count=2 -run 'TestConcurrent|TestSnapshot|TestTxn|TestReadsProceed' .

# crash runs the durability suite at full resolution: the WAL-level crash
# sweep plus the engine-level sweeps that kill the log at every write
# offset (clean and torn) and assert exact recovery, and the materialized
# views' close/reopen round trips (merging commits included). `go test ./...` runs
# the same tests; this target pins them by name so a sweep regression
# fails loudly even if someone narrows the default test run.
crash:
	$(GO) test -run 'TestCrash|TestTorn|TestRecovery|TestBulkLoadCrashPrefix|TestPlanCacheInvalidationAcrossRecovery|TestDurable|TestMatView.*Durab' ./internal/wal .

# fuzz runs three time-boxed searches. FuzzCacheKey looks for inputs on
# which the plan-cache key and the lexer disagree (the key fails exactly when
# lexing fails, and otherwise lexes to the statement's own tokens).
# FuzzDecodeRecord feeds arbitrary payloads to the WAL record decoder and
# FuzzDecodeSnapshot arbitrary bytes to the catalog checkpoint decoder; each
# must fail or return what re-encodes to the same bytes, and never panic.
# Not part of `check`: the committed corpora under internal/sql/testdata/fuzz/,
# internal/wal/testdata/fuzz/ and internal/catalog/testdata/fuzz/ already
# replay in every `go test ./...`, and the fuzzer writes any new failing input
# there to be committed with its fix.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 30s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 30s ./internal/catalog

# bench runs the repo benchmark (BENCHMARK.json, bench/): five workloads,
# end-to-end qps/p50/p95/pages_per_op/setup_s plus per-layer metrics, into
# one results file (~3 min). cmd/aggbench prints the paper's tables, not time.
bench:
	bash bench/run.sh --out .bench_build/results.json

# bench-smoke vets and tests the repo benchmark (BENCHMARK.json, bench/): a
# nested module outside `go build ./...` that compiles against the engine's
# public surface and several internal packages, so an engine change that
# breaks it fails here (~9 s) rather than in the benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-diff compares two results files written by `bash bench/run.sh --out`:
# one verdict (within / regressed / unresolved) per workload and metric,
# exit 1 on any regression.
bench-diff:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-diff OLD=a.json NEW=b.json"; exit 2; }
	bash bench/run.sh compare $(OLD) $(NEW)

# gobench runs the Go micro/macro benchmarks: the paper's experiments and one
# per stage a query crosses (BenchmarkCacheKey / BenchmarkParse in
# internal/sql, the optimizer's in internal/core, the executor's in
# internal/exec — one per operator: BenchmarkHashJoin, BenchmarkHashAgg,
# BenchmarkMergeJoin, BenchmarkSortAggregate, BenchmarkBlockNL; and
# BenchmarkOpenCursor, which times opening a plan apart from running it —
# BenchmarkQueryCacheHit and BenchmarkWarmExec in the root).
gobench:
	$(GO) test -bench=. -benchmem ./...

# docs-check keeps the documentation honest without adding dependencies:
# every relative Markdown link and every backticked internal/cmd/examples
# path must resolve (cmd/docscheck), and the example programs the docs
# point at must build and vet cleanly even when docs-check runs alone.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) vet ./examples/...

# check is the tier-1 gate: static analysis plus the full test suite
# (including the chaos fault sweeps) under the race detector, then the
# doubled concurrency stress pass, the full-resolution crash sweep, the
# benchmark module's smoke test, and the documentation link/reference
# check.
check: vet staticcheck race stress crash bench-smoke docs-check
