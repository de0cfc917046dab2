# dds — a laboratory for Dynamic Distributed Systems
#
# Standard targets for building, testing and regenerating the paper's
# experiment tables. Everything is std-lib Go; no network access needed.

GO ?= go

# The checked-in micro-benchmark baseline that bench-record writes and
# bench-check / verify-bench compare against.
BENCH_BASELINE ?= BENCH_PR44.json
# The baseline's names carry no -N GOMAXPROCS suffix (benchrecord keeps the
# suffix as part of the name), so the benchmarks it is compared with run at
# -cpu 1 whatever the host has; otherwise every one reads as missing.
BENCH_RUN = $(GO) test -run='^$$' -bench=. -benchmem -cpu 1 ./internal/...

.PHONY: all build vet test race bench bench-record bench-check verify-bench loc experiments experiments-check quick-experiments fuzz fmt fmt-check clean verify

all: build vet test

# Tier-1 verification: what CI and the ROADMAP hold every PR to. The
# bench gate runs loose (see verify-bench) so host noise cannot flake
# tier-1; the sharp 20% gate stays in bench-check for deliberate runs.
verify: build vet fmt-check test race verify-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiment suite sits near the default 10m per-package budget
# under the detector's overhead; the explicit timeout is headroom, not
# an expectation. ./internal/otq/... and ./cmd/ddsim/ take about 5 s and
# 4 s under the detector on a 2-vCPU host; ./internal/core/... is left
# out because it takes about 48 s there.
race:
	$(GO) test -race -timeout 20m ./internal/object/... ./internal/sketch/ ./internal/pex/... ./internal/node/... ./internal/fault/... ./internal/tq/... ./internal/exp/... ./internal/otq/... ./cmd/ddsim/

bench:
	$(GO) test -bench=. -benchmem ./...

# Record the substrate + experiment benchmarks as JSON for cross-PR
# comparison ($(BENCH_BASELINE) is the checked-in baseline). The root
# E1-E30 suite is excluded: it takes minutes and its tables live in
# EXPERIMENTS.md already.
bench-record:
	$(BENCH_RUN) | $(GO) run ./cmd/benchrecord -out $(BENCH_BASELINE)

# Diff fresh benchmark numbers against the checked-in baseline; fails on
# any benchmark whose ns/op regressed more than 20% or whose allocs/op or
# B/op grew more than 25% (allocation counts and sizes are deterministic —
# those gates catch pooled paths that silently start allocating again). A
# baseline benchmark that did not run at all also fails (benchrecord
# -allow-missing overrides when a deletion is deliberate).
bench-check:
	$(BENCH_RUN) | $(GO) run ./cmd/benchrecord -compare $(BENCH_BASELINE)

# The tier-1 flavor of bench-check: the ns/op tolerance is opened to
# 100% so a loaded CI host cannot flake verify, while the deterministic
# regressions it exists to catch still fail hard — allocation count or
# size growth, and baseline benchmarks that silently stop running.
verify-bench:
	$(BENCH_RUN) | $(GO) run ./cmd/benchrecord -compare $(BENCH_BASELINE) -tolerance 1.0

# The size ROADMAP aim 2 fences: non-test Go lines under internal/ and
# cmd/ (22 597 before PR 13, 22 304 before PR 14, 22 181 before PR 16,
# 22 610 before PR 24).
# 22 769 before the packages no command, benchmark or experiment reached
# were deleted (21 950 after).
# 22 293 before CheckWith became a replay through the stream checker and
# the two session machines became one (22 189 after).
# 22 281 before the sublayer stack became one table of inbound stages and
# lifecycle hooks (22 267 after; internal/node 5 828 before, 5 826 after).
# 22 424 before the class judges became replays through one stream judge
# (22 433 after, the pex sampler's living-only filter included;
# internal/core plus internal/otq 3 591 before, 3 590 after).
# 22 433 before what no program reaches was deleted or moved into _test.go
# files (21 958 after: 210 lines moved into tests, 265 net deleted;
# internal/node 5 932 before, 5 819 after).
# 21 958 before kernel events became pooled values behind seq-checked
# handles (21 974 after; internal/sim 404 before, 413 after).
# 21 974 before the retained trace went pointer-free (22 066 after;
# internal/core 1 361 before, 1 439 after).
# 22 066 before the config fields no program sets became constants and
# ddsim started refusing flags it would ignore (21 945 after).
# 21 945 before graph.NodeID became int32 and the ID decoders and sources
# started refusing what it cannot hold (21 983 after).
# 21 983 before wire frames became pin-counted and recycled (a free list
# per world in place of the carve-only arena) and pex.Record.Hop became
# int32 (22 172 after; internal/node 5 757 before, 5 951 after).
# PKG narrows the count to one directory tree: `make loc PKG=internal/node`
# (5 572 before PR 14, 5 619 before PR 24), `make loc PKG=internal/otq`
# (2 399 before PR 16).
PKG ?= internal cmd
loc:
	@find $(PKG) -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

# Regenerate every table in EXPERIMENTS.md (several minutes).
experiments:
	$(GO) run ./cmd/otqbench

# Run the full suite (about 75 s on a 2-vCPU host) and compare every
# report with its block in EXPERIMENTS.md, the columns a table marks as
# machine-dependent context masked: the document cannot drift from the code.
experiments-check:
	EXPERIMENTS_CHECK=1 $(GO) test -run '^TestExperimentsDocument$$' -timeout 30m ./internal/exp/

# CI-sized experiment pass.
quick-experiments:
	$(GO) run ./cmd/otqbench -quick -seeds 2

# Short fixed budgets so the whole target stays CI-sized. One line per
# func Fuzz* in the tree: fuzz_make_test.go fails when the two disagree.
fuzz:
	$(GO) test -fuzz=FuzzDecodeTrace -fuzztime=10s ./internal/core/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzEquivSplit -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzReceipt -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzRejoinClause -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzIdentityRecord -fuzztime=10s ./internal/node/
	$(GO) test -fuzz=FuzzReconfigClause -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzStackConfigCodec -fuzztime=10s ./internal/node/
	$(GO) test -fuzz=FuzzViewRecord -fuzztime=10s ./internal/pex/
	$(GO) test -fuzz=FuzzPoisonClause -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzTQWire -fuzztime=10s ./internal/tq/
	$(GO) test -fuzz=FuzzDiameterBounds -fuzztime=10s ./internal/graph/
	$(GO) test -fuzz=FuzzPexReconcile -fuzztime=10s ./internal/node/
	$(GO) test -fuzz=FuzzReliableWindow -fuzztime=10s ./internal/node/

fmt:
	gofmt -w .

# Fails, naming the files, if anything is unformatted; `make fmt` fixes.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l (run 'make fmt'):"; echo "$$out"; exit 1; fi

clean:
	$(GO) clean ./...
