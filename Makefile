# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race build vet micro fuzz bench-smoke loc nomap noregion nobarrier mutants allocs BENCH_micro.json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ROADMAP item 4's gate as a command: non-test Go lines of each gated
# directory (its own files, not its subdirectories), then their sum, which
# must not exceed LOC_MAX. Raise LOC_MAX only in a change that says why.
# 6814 → 6837: MIRA's carried subspaces (the column, enter's one walk from the
# root, forward's resumed narrowing, the test hook that checks them after each
# pump) grew internal/core by 23 lines, net of the box wrapper seed inlined;
# the narrowing itself lives in internal/naming, which is not gated.
# 6837 → 6877: fill's whole-run path (admitsAll and one block copy per run the
# filter admits whole, ~20% off a wide range) grew internal/core by 40 lines.
# 6877 → 6874: workload lost its closed loop (ROADMAP item 15): one arrival
# model, latency from the scheduled arrival, net of the dispatcher's yield
# before each arrival and armada-load's refusal of -rate 0.
# 6874 → 6872: workload lost its dispatcher goroutine, arrival queue and
# shed path (ROADMAP item 17): executors take turns waiting for their own
# arrivals, net of the dispatch_late_ms report field and the churn-rate
# floor in validate.
# 6872 → 6870: the arrival-rate ceiling in validate and the O(1) count of
# the arrivals due at a stop, net of a churn wait on time.After instead of
# a reset timer and two loops that min/max and slices.ContainsFunc now do.
# 6870 → 6749: diag ranks queries on the client clock and keeps the N
# slowest; the adaptive and fixed slow thresholds, split-in-flight and its
# control-action plumbing, and the two causes that failed their planted
# test (deep-descent, replica-redirect) are gone — internal/diag 494 → 389,
# the root 1837 → 1823 — net of the slow-log capacity cap and the
# negative-queue-wait check.
# 6749 → 6506: each workload executor records into its own unlocked samples,
# merged once the run ends; the locked collector, its interval snapshots
# (and armada-load -v), the delivery-skew and replica-read blocks and the
# walk-max hop delay are gone — workload 1891 → 1663, armada-load 630 → 629
# — net of the executor ceiling and the -attrs refusal. This meets item 4's
# goal of 6650.
# 6506 → 6460: the load controller keeps one setting, its growth cap; the
# tick, half-life, split threshold, cooldown, region-width floor and
# migration switch are constants, and WithK, WithBalancedBuild and
# Scenario.SplitThreshold are gone — the root 1823 → 1793, workload
# 1663 → 1647 — net of the actuators reporting the size change of failed
# actions.
# 6460 → 6449: a result object no longer names its serving peer (Match.Peer,
# and the peer threaded through writeMatch, fill, scan and the top-k
# candidate, are gone), net of single-attribute top-k's stop at its bar —
# internal/core 1498 → 1496 — and armada-load's -gogc flag and its GOGC 600
# default are gone, 629 → 620.
# 6449 → 6447: churn joins, leaves and fails are arrivals of the operations'
# one Poisson schedule, served by the executors; the churn goroutine with its
# clock, rng, background context and result channel is gone, and so are each
# sampler's op-kind table and wall-clock drift origin — workload 1647 → 1645,
# net of the schedule type and the merged-rate ceiling.
# 6447 → 6444: every obs instrument is striped per P (the padded cell,
# procPin, a histogram built of counters) and the issuer draw is one atomic
# add, net of obs.Gauge, the registry's name map, the hand-rolled bound
# renaming and per-line error checks of the text exposition, the recorder's
# wrapped flag, and the facade's rng and its mutex — internal/obs 504 → 492,
# the root 1793 → 1801 (the draw contract in WithSeed and Query.Issuer),
# internal/core 1496 → 1497.
# 6444 → 6498: MIRA admits each object once — admit buffers a run's admitted
# records and rows under the store's one lock, settle copies them into a
# page of exactly the admitted size, last reads the cursor off the buffer,
# and release bounds the row column per object — net of count and MIRA's
# counting pass in capacityHint: internal/core 1497 → 1550. await samples
# every arrival not yet due when it began, however it woke: workload
# 1645 → 1646.
# 6498 → 6311: the flight recorder folds into the diagnostics — its ring,
# event kinds and Chrome exporter (internal/obs 492 → 252) and the root's
# recorder branches, hop-event table, repair hook and split/migrate events
# (1801 → 1746) are gone; each diagnosed query keeps its first 64 hops in
# its pooled collector, copied into its record when it enters the slow log,
# and the log renders as the Chrome trace (internal/diag 389 → 500);
# armada-load's -trace-out implies -slow-log (620 → 617).
# 6311 → 6240: replicated reads follow one rule, round-robin through the
# owner's group on the engine's cursor; the read-policy knob is gone — the
# root's ReadPolicy alias with its four values, Query.ReadPolicy,
# WithReadPolicy and exec's policy check (1746 → 1714), and the engine's
# policy values with their String, QueryConfig.Policy and choose
# (internal/core 1550 → 1511, net of the deprecated ReadPolicy,
# ReadRoundRobin and WithReadPolicy the bench twin still calls).
# 6240 → 6215: MIRA prunes by masked corner ranks (naming.Tree.MayHold), so
# messages carry no subspace: queryState.subs, msg.sub, enter's walk from
# the root, forward's resumed narrowing and the test hook that checked them
# are gone (internal/core 1511 → 1486).
# 6215 → 6208: one materialise path at any attribute count — a run inside the
# box counted then copied as one block, a boundary run admitted once into the
# buffer — replaces PIRA's count-and-fill and MIRA's admit-and-settle:
# capacityHint, admitsAll, fill's object-by-object path, settle, need, the
# walk's whole-page allocation and writeMatch are gone, net of the page cut
# enforced again where a re-read writes it (internal/core 1486 → 1478;
# materialise.go + engine.go + walk.go 1165 → 1157); diag's hot-region rule
# is a share of the service time (internal/diag 499 → 500).
# 6208 → 6198: a query has one observer, core.Tracer — the root's queryObs
# wrapper with observe, hop, shortcutMiss and finish is gone for hopSink and
# the collector's chain (root 1715 → 1683), armada-load's -no-shortcut went
# (617 → 611), net of the Tracer interface, TraceFunc's Hop and the package
# doc (internal/core 1478 → 1495) and the collector handing events on
# (internal/diag 500 → 511).
# 6198 → 6241: a read allocates only what it returns — the pooled query state
# holds a range's bounds (prepare on the state, locate taking the state; a
# box over the caller's slices would move the facade's stack-held bounds to
# the heap, so the state keeps its own copy) and top-k's selection buffers
# (released with it), and a lookup of one object is written into a core.Room
# that LookupWith asks its caller for only once the page is known to hold one
# object (build's branch, materialise's callback, Roomed, which allocates the
# caller's result with or without the room, for the facade and core.Lookup
# alike; buildQueryConfig returns no options without taking cfg's address) —
# net of shape, Engine.prepare and the selection's lazy buffers:
# internal/core 1495 → 1533; AttributeSpace's doc states the out-of-space
# rule: the root 1683 → 1688.
# Item 4(g): the serving path — overlay, naming, Kautz arithmetic, route cache
# and load controller — has its own ceiling, LOC_SERVING_MAX, set at its size
# when the gate came in; the same rule raises it.
# 4023 → 3976: the 24-byte slot and the store's one growth rule grew
# internal/fissione by 25 lines; the Kautz helpers only kautz's tests called
# (Pred, OutNeighbors, InNeighbors, MustParse, Str.Append) moved into its
# test files, 72 lines, and the ceiling follows the total down.
# 3976 → 4103: the counted record arena behind the 16-byte pointer-free slot
# (the two-level chunk table, the counts and free list, recount at every
# store path that copies or drops slots, the audit's count check) grew
# internal/fissione by 127 lines, net of the strings.Builder chunk, ILen and
# newSlot it replaced; no other serving-path code became unnecessary.
# 4103 → 4062: internal/loadctl 343 → 302 — the controller's timing,
# threshold, width and migration settings became constants (their defaults
# and the fallback growth cap went with them), and Rates returns a map
# instead of a sorted slice of RegionRate.
# 4062 → 4052: internal/fissione lost RandomPeer(rng), the rng fallback and
# the snapshot note about it, for the positional accessor PeerIDAt.
# 4052 → 4209: the naming hash in closed form — each attribute's bisection
# precomputed by NewTree with its rounding margin (derived in HashInto's doc
# comment), the rank from one multiplication per attribute and its bit
# spread, the walk kept as definition and fallback — grew internal/naming
# 388 → 508, net of the edge-label chain and LeafCenter (one test's helper);
# the label from a rank in one bit-parallel pass, which FromRank now shares,
# grew internal/kautz 539 → 576. No other serving-path code became
# unnecessary.
# 4209 → 4165: kautz.CanAppend, kautz.Enumerate and kautz.PrefixComparable,
# naming.Space.Width and naming.Tree.Spaces, which only tests called, moved
# into test files — internal/kautz 576 → 542, internal/naming 508 → 498.
# 4165 → 4132: fissione's repair hook is gone with the flight recorder, and
# OwnersIntersecting and PeersIntersectingRegion, which only tests called,
# moved into test files — internal/fissione 2612 → 2579.
# 4132 → 4119: the per-peer served counter (served, ServedReads,
# NoteServed), which only the least-loaded read policy read, is gone with
# it — internal/fissione 2579 → 2566.
# 4119 → 4051: a snapshot carries the cover alone and the loader derives
# every table in the batch build's pass; the out-edge encoder, the decoder
# with its add helper and in-edge inversion, and GrowBatch's sequential
# fallback for replicated networks (folded into BuildRandom, which never
# took it) are gone — internal/fissione 2566 → 2498.
# 4051 → 3865: the partition is one integer floor per attribute, and MIRA
# prunes by its ranks masked per attribute: the dividing walk with its bit
# helper, the rounding margin and the closed form's fallback, the float
# subspaces (Interval, Subspace, NarrowFrom, Box.Meets, the root's third
# bounds) are gone — internal/naming 498 → 301, net of the masks and
# MayHold; kautz.PrefixBlock, the rank block a forward masks, grew
# internal/kautz 542 → 553.
# 3865 → 3898: naming.Tree.Classify, the one classifier core admits objects
# and runs by (Outside, Edge or Inside against a box's masked corner ranks),
# grew internal/naming 301 → 334. MayHold keeps its own loop: as Classify's
# not-Outside, every forward of a MIRA descent paid the Edge test's
# unpredictable branches. No other serving-path code became unnecessary.
# 3898 → 3909: a box keeps the caller's bounds — BoxOf, which validates them
# and which NewBox calls on a copy; Corners, the clamped corner ranks core
# and IntersectsPrefix share, through HashRank's one loop with its finiteness
# check made optional — net of NewBox's clamp and IntersectsPrefix's own
# ranking: internal/naming 334 → 345. No other serving-path code became
# unnecessary.
# The rest — every other directory with non-test Go files outside bench/:
# today the comparison baselines, the evaluation and armada-bench — has a
# third ceiling, LOC_REST_MAX, so no code grows where neither gate above
# sees it; the list is computed, so a new directory counts from its first
# line. Set at 2325 when the worked-example programs became checked Examples
# in the root's example_test.go and the baseline's message pump folded into
# dcfcan; the same rule raises it.
# 2325 → 2252: internal/stats lost SafeSample (with Drain), Min and StdDev
# once no workload goroutine shared a sample — 166 → 93.
LOC_DIRS = . internal/core internal/obs internal/diag workload cmd/armada-load
LOC_MAX = 6241
LOC_SERVING_DIRS = internal/fissione internal/naming internal/kautz internal/shortcut internal/loadctl
LOC_SERVING_MAX = 3909
LOC_REST_DIRS = $(filter-out $(LOC_DIRS) $(LOC_SERVING_DIRS) bench%,$(patsubst %/,%,$(sort $(dir $(filter-out %_test.go,$(wildcard *.go */*.go */*/*.go))))))
LOC_REST_MAX = 2252
loc:
	@bad=0; for gate in "LOC_MAX $(LOC_MAX) $(LOC_DIRS)" "LOC_SERVING_MAX $(LOC_SERVING_MAX) $(LOC_SERVING_DIRS)" "LOC_REST_MAX $(LOC_REST_MAX) $(LOC_REST_DIRS)"; do \
		set -- $$gate; name=$$1; max=$$2; shift 2; total=0; \
		for d in "$$@"; do \
			n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
			printf '%-20s %6d\n' $$d $$n; total=$$((total + n)); \
		done; printf '%-20s %6d of %d\n' total $$total $$max; \
		if [ $$total -gt $$max ]; then \
			echo "loc: $$total lines over the ceiling $$name = $$max" >&2; bad=1; \
		fi; \
	done; exit $$bad

# ROADMAP item 7's gate as a command: the topology is flat arrays and a trie
# over them, and no map comes back into its non-test files.
nomap:
	@! grep -n 'map\[' $(filter-out %_test.go,$(wildcard internal/fissione/*.go))

# ROADMAP item 13's gate as a command: the descent carries rank spans, and no
# string region comes back into the engine's non-test files.
noregion:
	@! grep -n 'kautz\.Region' $(filter-out %_test.go,$(wildcard internal/core/*.go))

# The engine's per-object and per-delivery functions make no bulk write
# barrier: none calls runtime.wbMove, typedmemmove or typedslicecopy, which a
# block copy of a pointer-holding value (a Match literal, a run holding
# *Peer) compiles to. Read off the disassembly of a built test binary — a
# compiler listing prints nothing for a cached build — and a function not
# found there fails the check instead of passing it.
NOBARRIER_FUNCS = queryState.plan queryState.take queryState.admit queryState.build queryState.block queryState.copyOut Engine.deliver Engine.forward Engine.pump selection.matches
nobarrier:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; bad=0; \
	$(GO) test -c -o "$$dir/core.test" ./internal/core/ || exit 1; \
	for f in $(NOBARRIER_FUNCS); do \
		fn="(*$${f%.*}).$${f#*.}"; \
		asm=$$($(GO) tool objdump -s "^armada/internal/core\.\(\*$${f%.*}\)\.$${f#*.}\$$" "$$dir/core.test"); \
		if [ -z "$$asm" ]; then echo "nobarrier: $$fn not found in the core test binary" >&2; bad=1; \
		elif echo "$$asm" | grep -E 'CALL runtime\.(wbMove|typedmemmove|typedslicecopy)\('; then \
			echo "nobarrier: $$fn makes a bulk write barrier" >&2; bad=1; \
		fi; \
	done; exit $$bad

# ROADMAP item 22's kill list as a command: each row of testdata/mutants.tsv
# names a file, a snippet in it, the snippet's replacement and the packages
# whose tests must catch it. For each row the mutated file goes to a temp
# dir, `go test -short -overlay` runs the packages on it without touching
# the tree, and the target fails if a mutant passes, does not build, or if
# its snippet is missing or occurs more than once — so the list cannot go
# stale silently.
define MUTATE
import sys
path, old, new, out = sys.argv[1:]
old, new = (s.replace("\\t", "\t").replace("\\n", "\n") for s in (old, new))
src = open(path).read()
if src.count(old) != 1:
    sys.exit(f"{path}: snippet occurs {src.count(old)} times, want once: {old!r}")
open(out, "w").write(src.replace(old, new))
endef
export MUTATE

mutants:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; tab=$$(printf '\t'); bad=0; n=0; killed=0; \
	while IFS=$$tab read -r file old new pkgs why; do \
		case "$$file" in ''|'#'*) continue;; esac; n=$$((n + 1)); \
		if ! python3 -c "$$MUTATE" "$$file" "$$old" "$$new" "$$dir/mutant.go"; then bad=1; continue; fi; \
		printf '{"Replace": {"%s": "%s"}}\n' "$(CURDIR)/$$file" "$$dir/mutant.go" > "$$dir/overlay.json"; \
		if $(GO) test -short -count=1 -overlay "$$dir/overlay.json" $$pkgs > "$$dir/log" 2>&1; then \
			echo "mutants: row $$n survived ($$file): $$why" >&2; bad=1; \
		elif grep -q '\[\(build\|setup\) failed\]' "$$dir/log"; then \
			cat "$$dir/log" >&2; echo "mutants: row $$n does not build ($$file): $$why" >&2; bad=1; \
		else killed=$$((killed + 1)); echo "killed $$n: $$why"; fi; \
	done < testdata/mutants.tsv; echo "mutants: $$killed of $$n killed"; exit $$bad

# Per-layer micro-benchmarks (ns/op, B/op, allocs/op): the pruning
# predicates, the naming hash (m = 2, and Single_hash) and its rank alone (m =
# 1 and 2), one store read (the
# view by rank every query makes, the same from strings, and the per-object
# scan the bench twin keeps) and one store write (an insert into and a removal
# from a 200-object store), the topology's owner lookup (on a fresh build and after 10k churn events), its
# name → slot door, one table derivation, a whole build, join + leave and
# replica-group lookup at 10k peers, one descent step and
# whole descents at 10k peers, the route cache's hit path (one tile, twelve)
# and what a descent pays to teach it, the facade's allocation profiles —
# a lookup descended and cache-served, and descended again with the query
# diagnostics on — and its range / paged walk / stream
# (drained, and left at the first object) / top-k at the scan-wide shape, with
# the range and the drained stream again over 250 owners, one MIRA range at the
# churn-write shape (two attributes, two replicas), one forced collection
# with the scan-wide network live, the live heap that network adds (MB and
# bytes a stored object), and the live heap a churn-write-shaped network
# keeps after 2M publishes and unpublishes; then value lookups at 10k peers
# from one and from two goroutines at once — named issuer, drawn issuer,
# cache-served, one shared cancellable context; and a 10k-peer snapshot
# load. A macro regression bisects to a layer here without a profiler.
micro:
	$(GO) test -run '^$$' -bench 'ContainsPrefix|SplitByFirstSymbol' -benchmem $(MICRO_FLAGS) ./internal/kautz/
	$(GO) test -run '^$$' -bench 'Hash|IntersectsPrefix' -benchmem $(MICRO_FLAGS) ./internal/naming/
	$(GO) test -run '^$$' -bench 'ScanRegion|View|Store|OwnerOf|SlotOf10k|RefreshTables10k|BuildRandom10k|JoinLeave10k|GroupSlots' -benchmem $(MICRO_FLAGS) ./internal/fissione/
	$(GO) test -run '^$$' -bench 'Step|Lookup10k|Range10k|Route' -benchmem $(MICRO_FLAGS) ./internal/core/
	$(GO) test -run '^$$' -bench 'Alloc|Wide|ManyOwners|ChurnRetention|RangeMIRA|SnapshotLoad10k' -benchmem $(MICRO_FLAGS) .
	$(GO) test -run '^$$' -bench 'ParallelLookup' -cpu 1,2 -benchmem $(MICRO_FLAGS) .

# The committed record of `make micro`: one object per benchmark — its
# package, its GOMAXPROCS (procs: go test's -N name suffix, absent at 1) and
# every value/unit pair go test printed. Repeated runs of one benchmark fold
# into its object by make allocs' rule: the least allocs/op and B/op
# (collector timing only ever adds to them), the median of every other value.
# The record runs each benchmark three times.
define MICRO_JSON
import json, re, statistics, sys
pkg, runs = "", {}
for f in (line.split() for line in sys.stdin):
    if len(f) > 1 and f[0] == "pkg:":
        pkg = f[1]
    elif len(f) > 1 and f[0].startswith("Benchmark"):
        name, procs = re.fullmatch(r"(.*?)(?:-(\d+))?", f[0]).groups()
        row = {"pkg": pkg, "name": name, "procs": int(procs or 1), "n": int(f[1])}
        row.update({f[i + 1]: float(f[i]) for i in range(2, len(f) - 1, 2)})
        runs.setdefault((pkg, name, row["procs"]), []).append(row)
out = []
for rows in runs.values():
    row = dict(rows[0])
    for u in row.keys() - {"pkg", "name", "procs"}:
        vals = [r[u] for r in rows]
        row[u] = min(vals) if u in ("allocs/op", "B/op") else statistics.median_low(vals)
    out.append(row)
json.dump(out, sys.stdout, indent=1)
print()
endef
export MICRO_JSON

BENCH_micro.json:
	$(MAKE) -s micro MICRO_FLAGS='-count 3' | python3 -c "$$MICRO_JSON" > $@

# ROADMAP item 25(b)'s gate as a command: the root package's query-path rows
# of `make micro` (Alloc*, Range*, Stream*, WalkWide, TopKWide at GOMAXPROCS
# 2, ParallelLookup* at 1 and 2), each run three times for a fixed 1 s,
# against their record in BENCH_micro.json. A row fails if the least of its
# three allocs/op rises over the record or the least of its B/op rises more
# than 2% over it, and the gate fails if a recorded row was not measured;
# ns/op is not compared. Collector timing only ever adds: GOGC=400 has it
# empty the query-state pools less often, so their refills do not tip a
# row's mean across a whole allocation (WalkWide read 102 or 103 and
# StreamManyOwners 208 or 209 at the default GOGC), and the least of three
# runs drops what the diagnostics' slow log keeps in a run whose timing
# ranked more queries into it (AllocLookupDiagnosed read 493-503 B/op). A
# change that raises a row refreshes the record (make BENCH_micro.json) and
# says why.
ALLOCS_ROWS = ^Benchmark(Alloc|Range|Stream|WalkWide$$|TopKWide$$|ParallelLookup)
define ALLOCS_CHECK
import json, re, sys
rows = re.compile(sys.argv[1])
record = {(r["name"], r["procs"]): r for r in json.load(open("BENCH_micro.json")) if r["pkg"] == "armada" and rows.search(r["name"])}
least = {(r["name"], r["procs"]): r for r in json.load(sys.stdin)}
bad = 0
for (name, procs), rec in record.items():
    r = least.get((name, procs))
    ok = r is not None and r["allocs/op"] <= rec["allocs/op"] and r["B/op"] <= rec["B/op"] * 1.02
    bad |= not ok
    got = "not measured" if r is None else f"{r['allocs/op']:g} allocs/op, {r['B/op']:g} B/op"
    print(f"{'ok  ' if ok else 'FAIL'} {name}-{procs}: {got} (record {rec['allocs/op']:g}, {rec['B/op']:g})")
sys.exit(bad)
endef
export ALLOCS_CHECK

allocs:
	@{ GOGC=400 $(GO) test -run '^$$' -bench '$(ALLOCS_ROWS)' -benchtime 1s -count 3 -cpu 2 -benchmem . ; \
	  GOGC=400 $(GO) test -run '^$$' -bench '^BenchmarkParallelLookup' -benchtime 1s -count 3 -cpu 1 -benchmem . ; } | \
		python3 -c "$$MICRO_JSON" | python3 -c "$$ALLOCS_CHECK" '$(ALLOCS_ROWS)'

# The CI fuzz leg: each target for 20 s on top of its committed seed corpus
# (testdata/fuzz/) — the two differential pruning predicates, the namespace
# arithmetic under the descent and the topology (successor, first-symbol
# split, common prefix), the rank geometry the descent runs against the string
# code it replaced, naming's order preservation and its agreement with
# the dividing reference walk (the check for any edit to naming's
# arithmetic) and its resumed walk against the whole one (what a MIRA descent
# carries from hop to hop), every hashed value inside its leaf's subspace but
# for a few ulps at rounded boundaries (what an inside-the-box admission of a
# whole run would rest on), rank order against string order with the ranks under a prefix
# (what lets a store search by integer), the topology's cover trie against the
# map it replaced, the slot-and-column store against a sorted slice, then the
# three parsers of untrusted input (snapshot bytes, pagination cursors, the
# load tool's scenario flags through Scenario.Normalize).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzContainsPrefix -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzSucc -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzSplitByFirstSymbol -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzCommonPrefix -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzRankOrder -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzRankGeometry -fuzztime 20s ./internal/kautz/
	$(GO) test -run '^$$' -fuzz FuzzIntersectsPrefix -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzHashOrder -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzHashMatchesReference -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzHashInsideLeaf -fuzztime 20s ./internal/naming/
	$(GO) test -run '^$$' -fuzz FuzzCoverMatchesReference -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzStoreMatchesReference -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 20s ./internal/fissione/
	$(GO) test -run '^$$' -fuzz FuzzOffsetID -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzRangeExact -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzScenarioFlags -fuzztime 20s ./cmd/armada-load/

# The CI bench-smoke job: the benchmark module's own checks (it is not part
# of the root ./...), then one short traced run each of descent-cold (plain
# descents), warm-route (the only workload whose queries go through the
# route cache), scan-wide (the only one with paged walks, top-k and large
# results) and churn-write (the only one with MIRA, replication and crash
# churn); each must verify against the oracle with no failed operation.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...
	for w in descent-cold warm-route scan-wide churn-write; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 | tail -n 1 | \
			python3 -c "import json,sys; r=json.load(sys.stdin); assert r['correct'] is True, 'verification failed'; assert r['failed']==0, f'{r[\"failed\"]} operations failed'" \
			|| exit 1; \
	done
