# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race build vet smoke micro fuzz bench-smoke rebaseline rebaseline-2cpu

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI load-smoke invocation, gated against the committed budget. Pinned
# to GOMAXPROCS=1 to match the baseline's env stamp (the compare gate
# refuses to gate across a GOMAXPROCS mismatch).
smoke:
	GOMAXPROCS=1 $(GO) run ./cmd/armada-load -scenario mixed -ops 2000 -peers 500 -v -compare BENCH_baseline.json

# Per-layer micro-benchmarks (ns/op, B/op, allocs/op): the pruning
# predicates, the naming hash, one descent step and whole descents at 10k
# peers, and the facade's allocation profiles. A macro regression bisects
# to a layer here without a profiler.
micro:
	$(GO) test -run '^$$' -bench 'ContainsPrefix|SplitByFirstSymbol' -benchmem ./internal/kautz/
	$(GO) test -run '^$$' -bench 'Hash|IntersectsPrefix' -benchmem ./internal/naming/
	$(GO) test -run '^$$' -bench 'Step|Lookup10k|Range10k' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'Alloc' -benchmem .

# The CI fuzz leg: each differential target for 20 s on top of its
# committed seed corpus (testdata/fuzz/).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzContainsPrefix -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzIntersectsPrefix -fuzztime 20s ./internal/naming/

# The CI bench-smoke job: the benchmark module's own checks (it is not part
# of the root ./...), then one short traced run of descent-cold that must
# verify against the oracle with no failed operation.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...
	bash bench/run.sh --workload descent-cold --seed 1 --seconds 3 --trace 1 | tail -n 1 | \
		python3 -c "import json,sys; r=json.load(sys.stdin); assert r['correct'] is True, 'verification failed'; assert r['failed']==0, f'{r[\"failed\"]} operations failed'"

# Regenerate the committed compare-gate budget as the per-op worst of three
# runs of the CI invocation. Run after any change that legitimately moves
# the mixed scenario's latency profile (and commit the result), so the
# regression gate is re-budgeted in one command. GOMAXPROCS is pinned so
# the baseline's env stamp matches the 1-CPU CI leg that gates against it.
rebaseline:
	GOMAXPROCS=1 $(GO) run ./cmd/armada-load -scenario mixed -ops 2000 -peers 500 -worst-of 3 -out BENCH_baseline.json
	@echo "BENCH_baseline.json regenerated (worst-of-3); review and commit it"

# Same, for the GOMAXPROCS=2 load-smoke leg: its tails are stabler than
# the pinned 1-CPU leg's, so it carries its own tighter budget.
rebaseline-2cpu:
	GOMAXPROCS=2 $(GO) run ./cmd/armada-load -scenario mixed -ops 2000 -peers 500 -worst-of 3 -out BENCH_baseline_2cpu.json
	@echo "BENCH_baseline_2cpu.json regenerated (worst-of-3 at GOMAXPROCS=2); review and commit it"
