# Convenience targets; everything also works with plain `go` commands.

GO ?= go

.PHONY: all build test test-short race bench bench-check bench-step1 bench-transport bench-acs bench-lp bench-kernel experiments fuzz soak soak-replay soak-acs vet lint lint-strict fmt cover cover-html clean

all: vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector (the batch engine, kernel caches
# and trace recorder are exercised concurrently).
race:
	$(GO) test -race ./...

# One benchmark per reproduced table/figure plus the ablations, then the
# solver micro-benchmarks.
bench: bench-lp bench-kernel
	$(GO) test -bench=. -benchmem

# The benchmark program (benchmark/, its own module, which the root's
# build/test/lint patterns do not see) must keep compiling against the
# library and agreeing with BENCHMARK.json: vet it and run its tests.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Step 1 micro-benchmarks (allocations reported): one n=10 f=3
# all-to-all EIG broadcast with a random liar, and the lockstep engine
# alone under the same fan-out. The allocation ceiling itself is a
# tier-1 test (TestEIGAllToAllAllocationCeiling).
bench-step1:
	$(GO) test -run '^$$' -bench 'EIGAllToAll|SyncEngineFanout' -benchmem ./internal/broadcast ./internal/sched

# Transport micro-benchmarks (allocations reported): one frame each way
# over a loopback TCP link (Send, coalescing writer, buffered reader,
# Recv), and one lockstep round of a 4-node RunSync mesh cluster (one
# bundle per peer per round).
bench-transport:
	$(GO) test -run '^$$' -bench 'TCPRoundTrip|RunSyncRound' -benchmem ./internal/transport

# ACS protocol-layer micro-benchmarks (allocations reported): one counted
# ECHO into a live Bracha instance that sends nothing (0 allocs/op), and
# one epoch of the acs_protocol shape (n=7 f=2 d=1 p=+Inf) on the
# lockstep engine. The per-epoch allocation ceiling itself is a tier-1
# test (TestACSEpochAllocationCeiling).
bench-acs:
	$(GO) test -run '^$$' -bench 'BrachaHandle|ACSEpoch' -benchmem ./internal/broadcast ./internal/acs

# LP-layer micro-benchmarks (allocations reported): build + one-shot
# Solve of the n=9 f=2 d=2 Gamma LP and of a small delta*_2 dual master,
# and the convex support fan (one phase 1, then 4 or 16 phase 2s) at the
# same shape. Attribution for batch_lp; the claim itself is
# benchmark/run.sh's.
bench-lp:
	$(GO) test -run '^$$' -bench 'SolveGamma|SolveMaster|SupportFan' -benchmem ./internal/lp ./internal/relax

# delta*_2 kernel micro-benchmarks (allocations reported) at the
# acs_kernel shape: one Wolfe distance from a point to a 4-point hull in
# R^3, and one cold delta*_2 solve of |S| = 6, f = 2, d = 3. The
# allocation ceilings themselves are tier-1 tests
# (TestDist2UncachedAllocationCeiling, TestDeltaStar2AllocationCeiling).
bench-kernel:
	$(GO) test -run '^$$' -bench 'Dist2Uncached|DeltaStar2$$' -benchmem ./internal/geom ./internal/minimax

# Regenerate every experiment table (E1-E21); fails if any claim breaks.
experiments:
	$(GO) run ./cmd/bvcbench

experiments-quick:
	$(GO) run ./cmd/bvcbench -quick -trials 3

# Randomized invariant hammering across all protocol modes.
fuzz:
	$(GO) run ./cmd/bvcfuzz -runs 200

# Deterministic fleet soak: 50k seeds across 4 worker subprocesses
# under the mixed fault regime, coverage-guided mutation, discoveries
# written into corpus/. Interrupt with ctrl-C and rerun to resume from
# the manifest; the gate fails on any unshrunk failure.
soak:
	$(GO) run ./cmd/bvcsoak -budget 50000 -shards 4 -regime mixed \
		-corpus corpus -manifest soak.manifest -summary soak-summary.json
	$(GO) run ./scripts -soak -soak-summary soak-summary.json

# Replay the committed corpus: every shrunk reproducer and interesting
# seed must still produce its recorded outcome and signature.
soak-replay:
	$(GO) run ./cmd/bvcsoak -replay-corpus -corpus corpus

# Streaming-ACS soak: hammer only the ACS protocol (it never joins the
# default roster — that would shift historic corpus seeds).
soak-acs:
	$(GO) run ./cmd/bvcsoak -budget 10000 -shards 4 -regime mixed \
		-protocols acs -corpus corpus -manifest soak-acs.manifest \
		-summary soak-acs-summary.json
	$(GO) run ./scripts -soak -soak-summary soak-acs-summary.json

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (internal/analysis, driven by
# cmd/bvclint): twelve passes — the intraprocedural six (nodeterminism,
# maporder, errwrap, floateq, seedflow, metriclabel) plus the
# interprocedural/protocol five (quorumgate, locksafe, ctxleak,
# atomicmix, chanlife) and the staleness audit. Suppress one line with
#   //bvclint:allow <analyzer> -- <justification>
# or add a whole-file entry to lint/exceptions.txt; a suppression that
# suppresses nothing is itself reported. See DESIGN.md §9.
lint:
	$(GO) run ./cmd/bvclint ./...

# Strict scope: the concurrency/protocol analyzers additionally cover
# the binaries (cmd/bvcnode, bvcsoak, bvcbench, bvcfuzz, bvcsim) and
# scripts/, not just the protocol packages.
lint-strict:
	$(GO) run ./cmd/bvclint -strict ./...

fmt:
	gofmt -w .

# Coverage profile (CI uploads coverprofile.out as an artifact).
cover:
	$(GO) test -coverprofile=coverprofile.out -covermode=atomic ./...
	$(GO) tool cover -func=coverprofile.out | tail -1

cover-html: cover
	$(GO) tool cover -html=coverprofile.out -o coverage.html

clean:
	$(GO) clean ./...
