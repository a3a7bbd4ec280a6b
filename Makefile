GO ?= go

# Packages exercised under the race detector: the concurrency-heavy
# runtime, scheduler, profiler, and cluster-hierarchy layers, plus the
# lock-free metrics registry.
RACE_PKGS = ./internal/rts ./internal/sched ./internal/profiler ./internal/hierarchy ./internal/metrics ./internal/supervise ./internal/checkpoint ./internal/fleet ./internal/query ./internal/query/loadgen

# Packages with fault-injection (chaos) suites, run under -race: the
# deterministic fault scenarios exercise the retry/quarantine/ladder
# paths that clean tests never reach.
CHAOS_PKGS = ./internal/rts ./internal/sched ./internal/power ./internal/fault ./internal/fleet

.PHONY: all build vet lint lint-sarif lint-fix-check test test-race test-chaos test-crash test-fleet test-query metrics-check fmt-check bench repro csv fuzz fuzz-smoke clean

all: build vet lint lint-fix-check test test-race test-chaos test-crash test-fleet test-query metrics-check

# Where the cached lint results live (content-addressed; safe to share
# across branches and restore in CI).
LINT_CACHE ?= .acsel-lint-cache

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (internal/lint). Unit analyzers:
# float equality in model code, unit-suffix mismatches, unseeded
# math/rand, dropped errors (including defer Close on writable files),
# sleep-based test synchronization, lock copies, map-iteration-ordered
# output, goroutine leaks, undeferred context cancels, and wall-clock
# values in artifacts. Module analyzers (whole-module call graph +
# per-function summaries): inconsistent lock order, mutex-guarded
# fields accessed bare, sync/atomic mixed with plain access, and
# //lint:deterministic roots reached by nondeterminism sources.
# Results are cached by a SHA-256 over the observable Go files and the
# analyzer suite, so an unchanged tree re-lints instantly. lint.budget
# is the findings ratchet: CI fails only when the count regresses above
# the recorded baseline (currently zero — keep it there).
lint:
	$(GO) run ./cmd/acsel-lint -cache -cache-dir $(LINT_CACHE) -budget lint.budget ./...

# Same run, emitting a SARIF 2.1.0 log for CI annotation/upload.
lint-sarif:
	$(GO) run ./cmd/acsel-lint -cache -cache-dir $(LINT_CACHE) -budget lint.budget -sarif lint.sarif ./... || true
	@test -s lint.sarif && echo "SARIF written to lint.sarif"

# Assert the suggested-fix engine is a no-op on a lint-clean tree: -fix
# must not touch a single file (and is idempotent by construction). The
# tree state is snapshotted before and after the run, so uncommitted
# work in progress neither fails the check nor gets clobbered by it; if
# -fix does change something, the changes are left in place for
# inspection (git diff shows exactly what the fixer wanted).
lint-fix-check:
	@before=$$(mktemp); after=$$(mktemp); trap 'rm -f "$$before" "$$after"' EXIT; \
	git diff -- '*.go' > $$before; \
	$(GO) run ./cmd/acsel-lint -fix ./... || true; \
	git diff -- '*.go' > $$after; \
	if ! cmp -s $$before $$after; then \
		echo "acsel-lint -fix modified the tree:"; \
		diff $$before $$after | head -40; exit 1; \
	fi; \
	echo "lint-fix-check: -fix is a no-op on the tree"

test:
	$(GO) test ./...

# Race-detector pass over the packages that spawn goroutines, plus the
# parallel-fold determinism regression (workers=1 vs GOMAXPROCS must
# yield a deeply equal Evaluation) and the parallel matrix equivalence.
test-race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'TestRunDeterministicAcrossWorkerCounts|TestModelCacheDirAcceleratesRun' ./internal/eval
	$(GO) test -race -run 'TestDissimilarityWorkersEquivalent' ./internal/core

# Fault-injection suites under the race detector: every built-in chaos
# scenario replayed through the runtime, scheduler, and sensor layers.
test-chaos:
	$(GO) test -race $(CHAOS_PKGS)

# Crash-recovery suite: the acsel-serve daemon is SIGKILLed mid-epoch
# in a child process and restarted; the resumed run's summary must be
# identical to an uninterrupted run on the same fault plan. Set
# ACSEL_CRASH_ARTIFACT_DIR to keep the journals of a failing run.
test-crash:
	$(GO) test -count=1 -v -run 'TestCrash|TestServe' ./cmd/acsel-serve

# Fleet integration suite: a child acsel-fleet coordinator rebalances
# three live loopback agents; one agent is killed mid-run (lease
# eviction + watt redistribution) and the coordinator itself is
# SIGKILLed and restarted (checkpoint resume). The in-process loopback
# suite in internal/fleet runs alongside it.
test-fleet:
	$(GO) test -count=1 -v -run 'TestFleet' ./cmd/acsel-fleet
	$(GO) test -count=1 ./internal/fleet

# Selection-service soak under the race detector: a seeded closed-loop
# load generator (8 clients, 30k queries; 10k with QUERY_SHORT=1, which
# CI sets) drives an undersized service through two hot reloads and an
# injected slow-shard fault; every response is checked bitwise against
# a single-threaded oracle, and admission control must shed without any
# request outliving its deadline. The run's latency/shed summary is
# written to $(QUERY_SUMMARY) (CI uploads it as a build artifact).
QUERY_SUMMARY ?= query-summary.json
test-query:
	ACSEL_QUERY_SUMMARY=$(abspath $(QUERY_SUMMARY)) $(GO) test -race -count=1 -v \
		$(if $(QUERY_SHORT),-short,) \
		-run 'TestSoakSelectionService|TestStressHotReloadRace' ./internal/query

# End-to-end observability smoke test: a one-iteration bench run must
# produce a JSON snapshot carrying every instrumented subsystem's
# families (rts registers via acsel-bench's blank import, at zero).
metrics-check:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/acsel-bench -exp table3 -iterations 1 -metrics-dump $$tmp/metrics.json > /dev/null; \
	for fam in acsel_rts_ladder_transitions_total acsel_profiler_runs_total acsel_sched_decisions_total acsel_eval_fold_seconds acsel_core_phase_seconds acsel_fault_injected_total; do \
		grep -q "\"$$fam\"" $$tmp/metrics.json || { echo "metrics-check: family $$fam missing from snapshot"; rm -rf $$tmp; exit 1; }; \
	done; \
	rm -rf $$tmp; echo "metrics-check: snapshot inventory complete"

# Fail if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Full microbenchmark + paper-bench sweep (quality metrics attached).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper as text.
repro:
	$(GO) run ./cmd/acsel-bench

# Export the characterization and evaluation data for external analysis.
csv:
	$(GO) run ./cmd/acsel-bench -exp accuracy -csv-dir out/

# Short fuzz pass over the pragma preprocessor.
fuzz:
	$(GO) test -fuzz FuzzPreprocess -fuzztime 30s ./internal/pragma

# CI-sized fuzz pass: 10 seconds per target across every fuzzed package
# (rank correlation, frontier shared order, pragma preprocessing,
# checkpoint decoding, select-request wire decoding, lint summary
# encoding, math/rand-exact stream seeding).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKendallTauRanks -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzSharedOrder -fuzztime 10s ./internal/pareto
	$(GO) test -run '^$$' -fuzz FuzzPreprocess -fuzztime 10s ./internal/pragma
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzSelectRequestDecode -fuzztime 10s ./internal/query
	$(GO) test -run '^$$' -fuzz FuzzSummaryRoundTrip -fuzztime 10s ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzStreamMatchesMathRand -fuzztime 10s ./internal/detrand

clean:
	rm -rf out/ model.json profiles.json lint.sarif query-summary.json $(LINT_CACHE)
