# Developer entry points. `make ci` is the full gate: formatting, vet,
# the test suite under the race detector, a repeated-run concurrency stress
# pass, a seeded kill-and-recover torture pass over the persistence layer,
# and a short fuzz pass over the engine, fault-schedule, and on-disk-format
# fuzzers.

GO ?= go
FUZZTIME ?= 5s
# stress repeats the concurrency/determinism tests to shake out rare
# interleavings; raise for soak runs (e.g. STRESSCOUNT=50).
STRESSCOUNT ?= 5
# bench-json knobs: raise for quieter numbers (e.g. BENCHTIME=30x BENCHCOUNT=5).
BENCHTIME ?= 10x
BENCHCOUNT ?= 3

.PHONY: ci fmt vet test race stress torture-smoke serve-smoke frag-smoke defrag-smoke disk-smoke build bench bench-smoke bench-json fuzz-smoke docs-check

ci: fmt vet docs-check race stress torture-smoke serve-smoke frag-smoke defrag-smoke disk-smoke bench-smoke fuzz-smoke

# gofmt -l prints offending files; fail when the list is non-empty.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated-run concurrency stress under the race detector: every test of the
# shard scheduler (internal/parallel), then sharded-sweep determinism,
# run-scoped metrics, the engine's policy-reuse guard, and concurrent-read
# contracts. GOMAXPROCS is forced above the core count so goroutines
# interleave even on small machines.
stress:
	GOMAXPROCS=4 $(GO) test -race -count=$(STRESSCOUNT) ./internal/parallel
	GOMAXPROCS=4 $(GO) test -race -count=$(STRESSCOUNT) \
		-run='Concurrent|Stress|Sweep|Shard|Slice|ForRun|Cancellation|Panic|WorkerCounts|Migration|Planners' \
		./internal/experiments ./internal/metrics \
		./internal/core ./internal/faults ./internal/vector ./internal/server \
		./internal/migrate

# Seeded kill-and-recover torture: random WAL truncations, snapshot
# deletions, and bit flips at the package level, plus real process kills
# (-kill-at hard exits and SIGKILL) at the CLI level — every recovery must be
# byte-identical to an uninterrupted run. Runs under the race detector.
# cmd/dvbpserver contributes the restart-under-load server torture: SIGKILL
# mid-load, restart, every acknowledged placement still served identically.
# internal/persist contributes the mid-migration tortures (TestTortureMigration*):
# kills landing between a drain's moves must recover byte-identically; and the
# golden corpus (TestGoldenCorpusReplays), which pins placement decisions
# across binary versions — a server tenant's acknowledged placements are
# rebuilt from its op log, so a decision change would rewrite them.
torture-smoke:
	$(GO) test -race -run='Torture|KillAt|SIGKILL|Recover|Restore|Golden' \
		./internal/persist ./internal/server ./cmd/dvbpchaos ./cmd/dvbpsim ./cmd/dvbpserver

# End-to-end smoke for the placement service: boot dvbpserver, create a
# tenant, place, drain on SIGTERM; plus the policy-spelling round-trip and
# the dvbpbench -serve-load / -serve-verify audit loop.
serve-smoke:
	$(GO) test -run='ServeSmoke|ListPolicySpellings|ServeLoadVerify' \
		./cmd/dvbpserver ./cmd/dvbpbench

# Fragmentation gate (DESIGN.md §13): the metric's recompute and reorder
# invariants, the scored policies' hand-worked decisions and registry
# round-trips, the datacenter trace generators' degenerate-draw audit, the
# head-to-head experiment, the server's per-dimension stranded accounting,
# and the ranking-flip figure.
frag-smoke:
	$(GO) test -run='Frag|Datacenter|Stranded|CheckItem' \
		./internal/metrics ./internal/core ./internal/workload \
		./internal/experiments ./internal/server ./cmd/dvbpfigs

# Defragmentation gate (DESIGN.md §14): planner/budget/plan-validation
# invariants, the budget-0 differential identity (disabled migration is
# byte-identical to no migration), engine migration invariants and hostile-plan
# rejection, mid-migration kill-and-recover, and the budgeted-defragmentation
# study with its azure acceptance property. Runs under the race detector
# because the differential and kill-and-recover checks must hold there too.
defrag-smoke:
	$(GO) test -race -run='Migration|Planner|ValidatePlan|Defrag' \
		./internal/migrate ./internal/core ./internal/persist ./internal/experiments

# Disk-fault gate (DESIGN.md §15): the vfs crash/fault model itself, the
# exhaustive crash-point sweeps (power loss at EVERY filesystem operation of
# a static and a dynamic run, recovery byte-identical), the compaction
# invariants (bounded WAL, no from-scratch fallback past the compaction
# base), the writer rollback/retry paths, the error taxonomy, the server's
# degraded read-only mode, and the CLI-level -disk-faults/-compact runs.
disk-smoke:
	$(GO) test -race -run='Vfs|Mem|Injector|Crash|DiskTorture|Compact|Rollback|SyncsParent|SweepsOrphan|Classification|Degraded|SickDisk|DiskFault' \
		./internal/vfs ./internal/persist ./internal/server ./cmd/dvbpchaos ./cmd/dvbpbench

bench:
	$(GO) test -bench=. -benchmem

# Run every benchmark exactly once so bench code can never rot unnoticed:
# compiles all benchmarks and executes each for a single iteration. -short
# keeps the fleet-scale Select benchmarks at n=10^4 (the 10^5/10^6 rungs
# build million-bin fleets; bench-json runs the full ladder).
bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# Machine-readable perf trajectory: run the core hot-path benchmarks, the
# engine's resident bytes per admitted item (EngineResident), the
# sharded-sweep throughput benchmark (shards/sec at 1 and 8 workers) and the
# placement-server benchmark (req/sec with p50/p99 latency at 1 and 8
# clients), then write BENCH_core.json (benchstat-comparable names, mean
# ns/op, B/op, allocs/op, each row tagged with its package; the header records
# the CPU count and GOMAXPROCS). When artifacts/bench/BENCH_core_pre.txt exists (the pre-change
# capture), it is embedded as the document's baseline section so the
# before/after pair travels together.
bench-json:
	@mkdir -p artifacts/bench
	@echo "nproc: $$(getconf _NPROCESSORS_ONLN)" > artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/core -run='^$$' -bench='ChurnHotPath|SimulateUniform|BinChurnClose|FleetSelect|FragmentationSweep|EngineResident' \
		-benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test . -run='^$$' -bench='Figure4SweepThroughput' \
		-benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/server -run='^$$' -bench='ServerPlaceThroughput' \
		-benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) run ./cmd/dvbpbench -benchjson artifacts/bench/BENCH_core_cur.txt \
		$(if $(wildcard artifacts/bench/BENCH_core_pre.txt),-benchjson-baseline artifacts/bench/BENCH_core_pre.txt) \
		-benchjson-out BENCH_core.json
	@echo "wrote BENCH_core.json"

# Documentation gate: every internal package must carry a doc.go overview,
# and every "DESIGN.md §N" reference in the top-level docs must point at a
# "## N." section DESIGN.md actually has.
docs-check:
	@missing=""; for d in internal/*/; do \
		[ -f "$$d"doc.go ] || missing="$$missing $$d"; \
	done; \
	if [ -n "$$missing" ]; then echo "docs-check: missing doc.go in:$$missing"; exit 1; fi
	@bad=""; for n in $$(grep -ho 'DESIGN\.md §[0-9][0-9]*' README.md EXPERIMENTS.md ROADMAP.md 2>/dev/null \
			| grep -o '[0-9][0-9]*$$' | sort -un); do \
		grep -q "^## $$n\." DESIGN.md || bad="$$bad $$n"; \
	done; \
	if [ -n "$$bad" ]; then echo "docs-check: broken DESIGN.md section references:$$bad"; exit 1; fi
	@echo "docs-check ok"

# Short differential-fuzz pass: the clean engine, the engine under fault
# injection, the fault-schedule parsers, and the persistence layer's WAL and
# snapshot decoders (seed corpus committed under internal/persist/testdata).
# Each fuzzer gets FUZZTIME.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSimulate$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSimulateFaulty$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzMigrationPlan$$' -fuzztime=$(FUZZTIME) ./internal/migrate
	$(GO) test -run='^$$' -fuzz='^FuzzWALDecode$$' -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzOpLogDecode$$' -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotDecode$$' -fuzztime=$(FUZZTIME) ./internal/persist
