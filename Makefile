GO ?= go

.PHONY: all build vet test race tier1 bench profile qdiff fmt

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

tier1: build vet test race

# bench runs every microbenchmark: executor engines and access paths
# (internal/pgdb), result pipelines and serving (root package), durable
# storage (internal/persist) and scatter-gather (internal/shard). End-to-end
# numbers come from the perfbench module (see perfbench/README.md).
bench:
	$(GO) test -run '^$$' -bench . ./...

# profile captures CPU and allocation profiles of the result-pipeline
# benchmarks and prints the hottest frames; inspect interactively with
# `go tool pprof cpu.prof` / `go tool pprof -alloc_objects mem.prof`.
profile:
	$(GO) test -run '^$$' -bench 'ResultPipeline|ServeTrade' -benchtime 20x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) tool pprof -top -nodecount 15 cpu.prof
	$(GO) tool pprof -top -nodecount 15 -alloc_objects mem.prof

# qdiff replays the differential fuzzer at the CI seeds, 31 runs in all:
# the compiled engine, one interpreted-engine run pinning the retained AST
# walker, the vectorized batch executor, the text result path, a 3-shard
# cluster against a single backend, disk-backed cold reopen (raw, and
# compressed + mmap at a tight memory budget), and secondary indexes under
# the compiled and vectorized engines and after a cold reopen. CI runs this
# target, so it is the one list of sweeps.
QDIFF = $(GO) run ./cmd/qdiff -n 10000
QDIFF_SEEDS = 1 2 7 42

qdiff:
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -shrink > /dev/null || exit 1; done
	$(QDIFF) -seed 1 -exec interpreted > /dev/null
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -exec vectorized -shrink > /dev/null || exit 1; done
	$(QDIFF) -seed 1 -result-path text > /dev/null
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -shards 3 -shrink > /dev/null || exit 1; done
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -persist -shrink > /dev/null || exit 1; done
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -persist -persist-compress -persist-mmap -persist-mem-budget 65536 -shrink > /dev/null || exit 1; done
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -index -shrink > /dev/null || exit 1; done
	for s in $(QDIFF_SEEDS); do $(QDIFF) -seed $$s -index -exec vectorized -shrink > /dev/null || exit 1; done
	$(QDIFF) -seed 1 -index -persist -shrink > /dev/null
