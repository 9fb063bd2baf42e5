# Standard developer entry points. Everything is stdlib-only; no network
# access is required for any target.

GO ?= go

.PHONY: all build vet test race poolcheck regolden bench bench-ab e2e-ab bench-quick bench-pipeline bench-tiers bench-compress bench-routing bench-meshio trace bench-json bench-baseline lint sim-soak fuzz e2e-multiproc export examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The kernel, predicate, residency-manager, block-digest and frame-codec
# micro-benchmarks run once each so that they cannot rot, ONUPDR and OPCDM
# run across two nodes in and out of core through the paper harness (an
# experiment fails on a non-conforming mesh), and the benchmark module (its
# own go.mod, invisible to ./...) runs its unit and smoke tests.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mesh ./internal/delaunay ./internal/ooc ./internal/meshgen ./internal/planes ./internal/geom
	$(GO) run ./cmd/mrtsbench -exp fig6,tab5 -scale 0.05 -pes 2
	$(GO) run ./cmd/mrtsbench -exp fig7,tab6 -scale 0.05 -pes 2
	cd benchmark && $(GO) test ./...

# The race lane; CI's race job runs this target. The concurrency-heavy
# packages and the mesh kernel (whose storage pool every worker shares)
# once; the swap path, meshgen's runs over it and the mesh store three
# times (schedule-dependent failures hide at -count=1: a tier lease leak
# once failed one TestConcurrentHammer run in six); the mesh store's
# readers on one processor (one worker, a window of two: nothing hides a
# worker that never yields); meshgen's in-core builds on one processor (the
# task pool's workers and the goroutine that submits to it share it); the
# control layer on one processor (nothing runs unless somebody yields) and
# three times on two (object ownership is about pairs of workers); the
# cluster and the simulator on one.
RACE_PKGS = ./internal/core/... ./internal/ooc/... ./internal/storage/... \
	./internal/swapio/... ./internal/comm/... ./internal/cluster/... \
	./internal/sched/... ./internal/meshgen/... ./internal/obs/... \
	./internal/tier/... ./internal/remotemem/... ./internal/bufpool/... \
	./internal/meshstore/... ./internal/e2e/... ./internal/planes/... \
	./internal/mesh/... ./internal/geom/...
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=3 ./internal/tier/... ./internal/ooc/... ./internal/core/... ./internal/storage/... ./internal/planes/... ./internal/meshgen/... ./internal/meshstore/...
	GOMAXPROCS=1 $(GO) test -race ./internal/meshstore/... ./internal/meshgen/ -run 'Scan|Verify|Restore|Export|Dump'
	GOMAXPROCS=1 $(GO) test -race ./internal/meshgen -run 'Test(RunUPDR|RunNUPDR|RunPCDM|GoldenRuns)'
	GOMAXPROCS=1 $(GO) test -race ./internal/core/...
	GOMAXPROCS=2 $(GO) test -race -count=3 ./internal/core/...
	GOMAXPROCS=1 $(GO) test -race ./internal/cluster/... ./internal/sim/...

# The swap path's packages with every released buffer poisoned (the
# poolcheck build tag): a buffer recycled while someone still reads it, a
# blob a store lent out included, reads as 0xDB and fails the test that
# reads it. CI's build-and-test job runs this target.
POOLCHECK_PKGS = ./internal/storage/... ./internal/swapio/... ./internal/core/... \
	./internal/tier/... ./internal/remotemem/... ./internal/cluster/... \
	./internal/meshgen/... ./internal/sim/...
poolcheck:
	$(GO) test -tags poolcheck $(POOLCHECK_PKGS)

# Re-pin the goldens: rerun them, rewrite internal/delaunay/testdata/golden.json
# and internal/meshgen/testdata/golden.json, and print each changed pin's old
# and new quality reports side by side. A change that moves a mesh runs this
# and puts the diff in CHANGES.md (DESIGN.md "When a mesh may change").
regolden:
	$(GO) test -count=1 -v -run '^TestGolden(Refinement|Runs)$$' ./internal/delaunay ./internal/meshgen -args -regolden

# Full benchmark harness: every figure and table of the paper.
bench:
	$(GO) test -bench=. -benchmem .

# An A/B of the kernel micro-benchmarks against a base revision: the mesh,
# delaunay and meshgen test binaries of both sides, run in turn N times, medians
# and ratios printed (make bench-ab BASE=HEAD~1 [BENCH=<regexp>] [N=<runs>]
# [OVERLAY=<test files>]; an empty variable takes the script's default, which
# ci/bench-ab.sh documents). CI does not run it.
bench-ab:
	bash ci/bench-ab.sh '$(BASE)' '$(BENCH)' '$(N)' '$(OVERLAY)'

# An A/B of the benchmark's end-to-end metrics against a base revision: the
# benchmark binary of both sides, N interleaved pairs of untraced runs per
# workload on fresh seeds, the record written to OUT (make e2e-ab BASE=HEAD~1
# [WORKLOADS=a,b] [N=<pairs>] [SECONDS=<s>] [OUT=BENCH_<n>.json]; an empty
# variable takes the script's default, which ci/e2e-ab.sh documents). CI
# does not run it.
e2e-ab:
	bash ci/e2e-ab.sh '$(BASE)' '$(WORKLOADS)' '$(N)' '$(SECONDS)' '$(OUT)'

# One quick iteration of every experiment at reduced scale.
bench-quick:
	$(GO) run ./cmd/mrtsbench -exp all -scale 0.1

# The swap I/O scheduler sweep: workers × prefetch depth on OUPDR
# (override: make bench-pipeline SCALE=0.5).
bench-pipeline:
	$(GO) run ./cmd/mrtsbench -exp pipeline -scale $(SCALE)

# The tiered-storage capacity sweep: OPCDM from pure disk through a bounded
# remote-memory lease to pure remote memory
# (override: make bench-tiers SCALE=0.5).
bench-tiers:
	$(GO) run ./cmd/mrtsbench -exp tiers -scale $(SCALE)

# The tier-0.5 compression sweep (off vs on) plus the swap hot path's
# steady-state allocation audit (override: make bench-compress SCALE=0.5).
bench-compress:
	$(GO) run ./cmd/mrtsbench -exp compress,alloc -scale $(SCALE)

# The first-hop routing sweep: the three directory policies × two migration
# regimes (override: make bench-routing SCALE=0.5 DIR=eager to run one policy).
DIR ?=
bench-routing:
	$(GO) run ./cmd/mrtsbench -exp routing -scale $(SCALE) -dir "$(DIR)"

# The meshstore data path: synthetic chunk write/read MB/s plus the OUPDR
# streaming-export and 2-node-restore round trip
# (override: make bench-meshio SCALE=1 for the full-size mesh).
bench-meshio:
	$(GO) run ./cmd/mrtsbench -exp meshio -scale $(SCALE)

# Capture a Perfetto-loadable event trace of one experiment
# (override: make trace EXP=fig8 SCALE=0.25).
EXP ?= tab4
SCALE ?= 0.25
trace:
	$(GO) run ./cmd/mrtsbench -exp $(EXP) -scale $(SCALE) -trace trace_$(EXP).json
	@echo "open trace_$(EXP).json at https://ui.perfetto.dev"

# Machine-readable metrics for the whole evaluation.
bench-json:
	$(GO) run ./cmd/mrtsbench -exp all -scale $(SCALE) -json BENCH.json

# Regenerate the CI benchmark-regression baseline (same config as the
# bench-smoke job in .github/workflows/ci.yml; commit the result).
bench-baseline:
	$(GO) run ./cmd/mrtsbench -exp tab1,tab4,fig8,faults,pipeline,tiers,alloc,compress,routing,meshio -scale 0.05 -pes 2 -json ci/bench-baseline.json

# 100-seed deterministic-simulation soak (the nightly CI job runs the same
# sweep under -race). Failing seeds are listed in the test output and in
# internal/sim/sim-failed-seeds.txt; replay one with
#   go test ./internal/sim -run Soak -sim.seed <seed>
sim-soak:
	$(GO) test ./internal/sim/ -run Soak -sim.seeds 100 -count=1 -timeout 30m

# Every fuzz target, FUZZTIME each (the nightly sim-soak job runs this, and
# CI's build-and-test job with FUZZTIME=5s on every push): the byte-plane
# frame decoder, the block digest against its oracles, the mesh decoder, the
# swap tier's frame decoder, the mesh store's and the meshgen object
# decoders, and the refinement kernel's two shortcuts (the quality filter
# and the rotated in-circle test) against the forms they stand in for. A
# failing input is written under the package's testdata/fuzz; committed
# there, plain go test replays it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/planes -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/meshgen -run '^$$' -fuzz '^FuzzHashMeshMatchesOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mesh -run '^$$' -fuzz '^FuzzDecodeFrom$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tier -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/meshstore -run '^$$' -fuzz '^FuzzPayload$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/meshgen -run '^$$' -fuzz '^FuzzObjectDecoders$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzKernelShortcuts$$' -fuzztime $(FUZZTIME)

# Packages that must take time from an injected clock.Clock so the
# deterministic simulation harness can virtualize them (the TCP membership,
# heartbeat and sharded-directory code in internal/comm and internal/cluster
# included). Only the clock implementations themselves may call the time
# package for "now"/sleeping.
CLOCKED_PKGS = internal/core internal/comm internal/storage internal/swapio internal/sched internal/cluster internal/tier internal/bufpool internal/obs

# gofmt and vet (of the root module and of the benchmark module, the one
# consumer of internal/ that ./... cannot see), the unused-API check, then
# five layering rules. This target is their only statement: CI's lint job
# calls it, then runs staticcheck (which needs an install, so it stays there).
# - Unused API: every exported identifier of an internal/ package (names,
#   methods, fields) has a use in a non-test file of either module, or a
#   line with its reason in ci/deadapi/allow.txt (ci/deadapi says what
#   counts as a use). One that only its own package's tests use moves to
#   that package's export_test.go.
# - Clock injection: no package below cmd/ that the simulator drives may
#   read real time directly.
# - Transport encapsulation: all raw TCP lives behind internal/comm;
#   everything else addresses peers by NodeID through an Endpoint, so the
#   simulator can swap the transport out from under them.
# - Routing encapsulation: first-hop routing belongs to the core.Locator
#   seam; nothing outside internal/core sends, posts or migrates against
#   ptr.Home directly, so the policy stays swappable.
# - Mesh-format encapsulation: the chunk file format belongs to
#   internal/meshstore; a chunk filename anywhere else means a second,
#   unversioned implementation of the format is growing.
# - Codec at the bottom: internal/planes is the payload codec of both the
#   swap tier and the mesh store, so it imports nothing from the repo but
#   bufpool; anything more and one of the two would drag in the other.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	$(GO) run ./ci/deadapi -allow ci/deadapi/allow.txt . benchmark
	@out="$$(grep -rnE 'time\.(Now|Sleep|After|NewTimer|NewTicker|Tick)\(' --include='*.go' --exclude='*_test.go' $(CLOCKED_PKGS) || true)"; \
	if [ -n "$$out" ]; then echo "direct time calls in clocked packages (inject clock.Clock instead):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'net\.(Dial|Listen)\(' --include='*.go' internal cmd examples | grep -v '^internal/comm/' || true)"; \
	if [ -n "$$out" ]; then echo "raw net.Dial/net.Listen outside internal/comm (use comm endpoints):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE '(Send|Post|RequestMigration|Migrate)\([^)]*\.Home' --include='*.go' internal cmd examples | grep -v '^internal/core/' || true)"; \
	if [ -n "$$out" ]; then echo "routing decision on ptr.Home outside internal/core (go through the Locator seam):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn '\.mshc' --include='*.go' --exclude='*_test.go' internal cmd examples | grep -v '^internal/meshstore/' || true)"; \
	if [ -n "$$out" ]; then echo "mesh chunk files touched outside internal/meshstore (go through Writer/Store/IsChunkName):"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/planes | grep '^mrts/' | grep -v '^mrts/internal/bufpool$$' || true)"; \
	if [ -n "$$out" ]; then echo "internal/planes imports more of the repo than bufpool:"; echo "$$out"; exit 1; fi

# The multi-process e2e lane; CI's e2e-multiproc job runs this target. Every
# launch ends in an export, and its block report comes from the store's
# merged manifest. A 3-process loopback OUPDR cluster loses one worker after
# the first phase barrier and relaunches it from its checkpoint, checked
# block for block against a single-process baseline of the same problem
# (every worker computes the same dealt placement, and a block's pointer
# names the node that holds it, so the runtime's default routing needs no
# placement setting). Then the export/restore drill: a 3-node run exports
# (with one node SIGKILLed mid-export and relaunched), the store verifies
# offline, and a 2-node restore reproduces the baseline.
e2e-multiproc:
	$(GO) build -o bin/meshnode ./cmd/meshnode
	$(GO) build -o bin/meshctl ./cmd/meshctl
	bin/meshctl -meshnode bin/meshnode -nodes 1 -blocks 6 -elements 20000 -phases 3 -dir e2e-run/baseline -out baseline.txt
	bin/meshctl -meshnode bin/meshnode -nodes 3 -blocks 6 -elements 20000 -phases 3 -kill 2 -kill-after 0 -trace -dir e2e-run/cluster -baseline baseline.txt
	bin/meshctl -meshnode bin/meshnode -nodes 3 -blocks 6 -elements 20000 -phases 2 -kill-export 2 -store e2e-run/store -dir e2e-run/export -baseline baseline.txt
	bin/meshctl verify -store e2e-run/store -deep
	bin/meshctl restore -store e2e-run/store -nodes 2 -baseline baseline.txt

# Streaming mesh export end to end: a 3-process cluster meshes, frames every
# block into an on-disk chunk store, and the store verifies offline
# (inspect it with: go run ./cmd/meshserve -store export-run/store).
export:
	$(GO) build -o bin/meshnode ./cmd/meshnode
	$(GO) build -o bin/meshctl ./cmd/meshctl
	bin/meshctl -meshnode bin/meshnode -nodes 3 -blocks 6 -elements 20000 -phases 2 -store export-run/store -dir export-run/work
	bin/meshctl verify -store export-run/store -deep

# Every example, so a new one cannot be left out of the list: each is a
# self-checking main that exits non-zero on a regression.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

clean:
	$(GO) clean ./...
