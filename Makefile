# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race build vet micro fuzz bench-smoke loc nomap BENCH_micro.json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ROADMAP item 4's gate as a command: non-test Go lines of each gated
# directory (its own files, not its subdirectories), then their sum.
LOC_DIRS = . internal/core internal/obs internal/diag workload cmd/armada-load
loc:
	@total=0; for d in $(LOC_DIRS); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-16s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-16s %6d\n' total $$total

# ROADMAP item 7's gate as a command: the topology is flat arrays and a trie
# over them, and no map comes back into its non-test files.
nomap:
	@! grep -n 'map\[' $(filter-out %_test.go,$(wildcard internal/fissione/*.go))

# Per-layer micro-benchmarks (ns/op, B/op, allocs/op): the pruning
# predicates, the naming hash (m = 2, and Single_hash), one store read (the
# view by rank every query makes, the same from strings, and the per-object
# scan the bench twin keeps) and one store write (an insert into and a removal
# from a 200-object store), the topology's owner lookup (on a fresh build and after 10k churn events), its
# name → slot door, one table derivation, a whole build, join + leave and
# replica-group lookup at 10k peers, one descent step and
# whole descents at 10k peers, the route cache's hit path (one tile, twelve)
# and what a descent pays to teach it, the facade's allocation profiles —
# a lookup descended and cache-served — and its range / paged walk / stream
# (drained, and left at the first object) / top-k at the scan-wide shape, with
# the range and the drained stream again over 250 owners. A macro regression
# bisects to a layer here without a profiler.
micro:
	$(GO) test -run '^$$' -bench 'ContainsPrefix|SplitByFirstSymbol' -benchmem ./internal/kautz/
	$(GO) test -run '^$$' -bench 'Hash|IntersectsPrefix' -benchmem ./internal/naming/
	$(GO) test -run '^$$' -bench 'ScanRegion|View|Store|OwnerOf|SlotOf10k|RefreshTables10k|BuildRandom10k|JoinLeave10k|GroupPeers' -benchmem ./internal/fissione/
	$(GO) test -run '^$$' -bench 'Step|Lookup10k|Range10k|Route' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'Alloc|Wide|ManyOwners' -benchmem .

# The committed record of `make micro`: one object per benchmark — its
# package and every value/unit pair go test printed.
define MICRO_JSON
import json, sys
pkg, out = "", []
for f in (line.split() for line in sys.stdin):
    if len(f) > 1 and f[0] == "pkg:":
        pkg = f[1]
    elif len(f) > 1 and f[0].startswith("Benchmark"):
        row = {"pkg": pkg, "name": f[0].rsplit("-", 1)[0], "n": int(f[1])}
        row.update({f[i + 1]: float(f[i]) for i in range(2, len(f) - 1, 2)})
        out.append(row)
json.dump(out, sys.stdout, indent=1)
print()
endef
export MICRO_JSON

BENCH_micro.json:
	$(MAKE) -s micro | python3 -c "$$MICRO_JSON" > $@

# The CI fuzz leg: each target for 20 s on top of its committed seed corpus
# (testdata/fuzz/) — the two differential pruning predicates, the namespace
# arithmetic under the descent and the topology (successor, first-symbol
# split, common prefix), naming's order preservation and its agreement with
# the dividing reference walk (the check for any edit to naming's
# arithmetic), rank order against string order with the ranks under a prefix
# (what lets a store search by integer), the topology's cover trie against the
# map it replaced, the slot-and-column store against a sorted slice, then the
# two parsers of untrusted input (snapshot bytes, pagination cursors).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzContainsPrefix -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzSucc -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzSplitByFirstSymbol -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzCommonPrefix -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzRankOrder -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzIntersectsPrefix -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzHashOrder -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzHashMatchesReference -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzCoverMatchesReference -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzStoreMatchesReference -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzOffsetID -fuzztime 20s .

# The CI bench-smoke job: the benchmark module's own checks (it is not part
# of the root ./...), then one short traced run each of descent-cold (plain
# descents), warm-route (the only workload whose queries go through the
# route cache) and scan-wide (the only one with paged walks, top-k and large
# results); each must verify against the oracle with no failed operation.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...
	for w in descent-cold warm-route scan-wide; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 | tail -n 1 | \
			python3 -c "import json,sys; r=json.load(sys.stdin); assert r['correct'] is True, 'verification failed'; assert r['failed']==0, f'{r[\"failed\"]} operations failed'" \
			|| exit 1; \
	done
