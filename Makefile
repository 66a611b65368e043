# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race build vet micro fuzz bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-layer micro-benchmarks (ns/op, B/op, allocs/op): the pruning
# predicates, the naming hash, one descent step and whole descents at 10k
# peers, and the facade's allocation profiles. A macro regression bisects
# to a layer here without a profiler.
micro:
	$(GO) test -run '^$$' -bench 'ContainsPrefix|SplitByFirstSymbol' -benchmem ./internal/kautz/
	$(GO) test -run '^$$' -bench 'Hash|IntersectsPrefix' -benchmem ./internal/naming/
	$(GO) test -run '^$$' -bench 'Step|Lookup10k|Range10k' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'Alloc' -benchmem .

# The CI fuzz leg: each target for 20 s on top of its committed seed corpus
# (testdata/fuzz/) — the two differential pruning predicates, then the two
# parsers of untrusted input (snapshot bytes, pagination cursors).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzContainsPrefix -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzIntersectsPrefix -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzOffsetID -fuzztime 20s .

# The CI bench-smoke job: the benchmark module's own checks (it is not part
# of the root ./...), then one short traced run each of descent-cold (plain
# descents) and warm-route (the only workload whose queries go through the
# frontier cache and the shortcut table); each must verify against the
# oracle with no failed operation.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...
	for w in descent-cold warm-route; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 | tail -n 1 | \
			python3 -c "import json,sys; r=json.load(sys.stdin); assert r['correct'] is True, 'verification failed'; assert r['failed']==0, f'{r[\"failed\"]} operations failed'" \
			|| exit 1; \
	done
