# aggview build/test targets. Pure Go, stdlib only.

GO ?= go

.PHONY: build vet staticcheck test race stress crash fuzz bench bench-smoke bench-diff gobench corebench execbench paper reach docs-check check

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

# fuzz runs four time-boxed searches. FuzzCacheKey looks for inputs on
# which the plan-cache key and the lexer disagree (the key fails exactly when
# lexing fails, and otherwise lexes to the statement's own tokens).
# FuzzDecodeRecord feeds arbitrary payloads to the WAL record decoder and
# FuzzDecodeSnapshot arbitrary bytes to the catalog checkpoint decoder; each
# must fail or return what re-encodes to the same bytes, and never panic.
# FuzzColumnPage appends the rows it decodes from arbitrary bytes to a file
# and gathers them back from its column pages: they must re-encode to the
# bytes they came from, and nothing may panic.
# Not part of `check`: the committed corpora under internal/sql/testdata/fuzz/,
# internal/wal/testdata/fuzz/, internal/catalog/testdata/fuzz/ and
# internal/storage/testdata/fuzz/ already replay in every `go test ./...`,
# and the fuzzer writes any new failing input there to be committed with its
# fix.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 30s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 30s ./internal/catalog
	$(GO) test -run '^$$' -fuzz FuzzColumnPage -fuzztime 30s ./internal/storage

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
# internal/sql, the optimizer's in internal/core — BenchmarkOptimizeAdhoc per
# template and mode, BenchmarkOptimizeAdhocMix over adhoc-plan's rotation,
# per statement — ANALYZE's in internal/catalog — BenchmarkAnalyze, every
# table of a 24 000-lineitem TPC-D load, warm-exec's size — the executor's in
# internal/exec — one per operator: BenchmarkHashJoin, BenchmarkHashAgg
# (each on `int` keys, which a key table indexes directly, `string` keys,
# `int-sparse` keys spread over 2^40, which keep the table hashed, and
# `int-spread` keys six apart, which the table indexes directly up to its
# dense floor of 2^15 and hashes beyond),
# BenchmarkMergeJoin, BenchmarkSortAggregate, BenchmarkBlockNL (the
# merge join's and block nested loops' cases named `residual` also test
# l.v < r.w on every key-matching pair: `keys=4775/residual`,
# `keys=24000/residual`, `scan/residual`, `materialized/residual`; the
# block join's `scan/left` and `scan/left/residual` are LEFT joins, which
# pad the block rows whose pairs all failed, and `scan/string` and
# `scan/string/residual` join on VARCHAR keys), and
# BenchmarkSort (the operator ORDER BY runs in; in memory and spilling,
# ascending and DESC); BenchmarkScanFilter, a scan's filter kernels per
# stored row (an INT and a FLOAT column against a `?`, a column against a
# column); and
# BenchmarkOpenCursor, which times opening a plan apart from running it —
# BenchmarkQueryCacheHit, BenchmarkWarmExec and BenchmarkQueryAdhocMix (the
# adhoc-plan rotation through Engine.Query, every statement a plan-cache
# miss) in the root; view maintenance
# per commit in BenchmarkMatViewMaintain (root) and per step — bind and
# compile, a delta, a merge — in internal/matview's BenchmarkMaintainSteps).
gobench:
	$(GO) test -bench=. -benchmem ./...

# corebench runs every internal/core benchmark once (one iteration each),
# and BenchmarkQueryAdhocMix, a plan-cache miss end to end, so the
# optimizer's benchmarks keep running, not only compiling (~2 s).
corebench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkQueryAdhocMix$$' -benchtime 1x .

# execbench runs every internal/exec benchmark once (one iteration each),
# and BenchmarkWarmExec, the warm-exec statements through their cached
# plans, so the executor's benchmarks keep running, not only compiling.
execbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/exec
	$(GO) test -run '^$$' -bench '^BenchmarkWarmExec$$' -benchtime 1x .

# paper regenerates aggbench_output.txt, the full-size paper tables
# EXPERIMENTS.md cites (~1 min), and fails when a line other than the
# per-experiment timing lines changed: commit the new file with the change
# that moved it. Not part of `check`: `go test` already compares the quick
# tables with internal/experiments/testdata/quick.golden.
paper:
	@mkdir -p .bench_build
	$(GO) run ./cmd/aggbench > .bench_build/aggbench_output.txt
	@grep -v ' completed in ' aggbench_output.txt > .bench_build/paper.old; \
	grep -v ' completed in ' .bench_build/aggbench_output.txt > .bench_build/paper.new; \
	cp .bench_build/aggbench_output.txt aggbench_output.txt; \
	diff -u .bench_build/paper.old .bench_build/paper.new

# reach is the census of what the drivers run (ROADMAP item 20). It builds
# cmd/aggbench, cmd/aggopt, the six examples and the benchmark binary with
# coverage of every aggview package, then runs, into one GOCOVERDIR:
# `aggbench -quick`; each example; aggopt over cmd/aggopt/testdata/reach.sql
# once per -mode and once with -systemr; each of the five workloads for 2 s;
# and one traced durable-rw (--trace 1). The traced run is kept although it
# drives the internal packages through bench/trace.go's twin of the engine,
# not through the engine: the census counts what the drivers run. It prints
# reach per package and writes the functions outside cmd/, bench/ and
# examples/ that never ran to .bench_build/reach/unreached.txt. Not part of
# `check`, and it gates nothing yet (~2 min).
REACH := .bench_build/reach
reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/bin $(REACH)/cov $(REACH)/data
	$(GO) build -cover -coverpkg=aggview/... -o $(REACH)/bin/ ./cmd/aggbench ./cmd/aggopt
	for e in examples/*/; do \
		$(GO) build -cover -coverpkg=aggview/... -o $(REACH)/bin/example-$$(basename $$e) ./$$e || exit 1; \
	done
	cd bench && $(GO) build -cover -coverpkg=aggview/... -o ../$(REACH)/bin/bench .
	export GOCOVERDIR=$(CURDIR)/$(REACH)/cov; set -e; \
	$(REACH)/bin/aggbench -quick > /dev/null; \
	for e in $(REACH)/bin/example-*; do $$e > /dev/null; done; \
	for m in traditional push-down full; do \
		$(REACH)/bin/aggopt -demo -batch -mode $$m -f cmd/aggopt/testdata/reach.sql > /dev/null; \
	done; \
	$(REACH)/bin/aggopt -demo -batch -systemr -f cmd/aggopt/testdata/reach.sql > /dev/null; \
	for w in adhoc-plan warm-exec cold-io rollup-hot durable-rw; do \
		$(REACH)/bin/bench --workload $$w --seconds 2 --data-dir $(REACH)/data > /dev/null; \
	done; \
	$(REACH)/bin/bench --workload durable-rw --trace 1 --seconds 2 --data-dir $(REACH)/data > /dev/null
	$(GO) tool covdata percent -i $(REACH)/cov
	$(GO) tool covdata func -i $(REACH)/cov | grep -v -e '^aggview/cmd/' -e '^aggview/bench/' -e '^aggview/examples/' \
		| awk '$$NF == "0.0%"' > $(REACH)/unreached.txt
	@echo "$$(wc -l < $(REACH)/unreached.txt) functions outside cmd/, bench/ and examples/ never ran: $(REACH)/unreached.txt"

# docs-check keeps the documentation honest without adding dependencies:
# every relative Markdown link and every backticked internal/cmd/examples
# path must resolve (cmd/docscheck), and the example programs the docs
# point at must build and vet cleanly even when docs-check runs alone.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) vet ./examples/...

# check is the tier-1 gate: static analysis plus the full test suite
# (including the chaos fault sweeps) under the race detector, then the
# doubled concurrency stress pass, the full-resolution crash sweep, one pass
# of the optimizer's and the executor's benchmarks, the benchmark module's
# smoke test, and the documentation link/reference check.
check: vet staticcheck race stress crash corebench execbench bench-smoke docs-check
