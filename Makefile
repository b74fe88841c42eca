# Convenience targets; everything also works with plain `go` commands.

GO ?= go

.PHONY: all build test test-short race bench bench-check bench-step1 bench-transport bench-acs bench-lp bench-kernel experiments experiments-quick fuzz soak soak-replay soak-acs vet lint fmt cover cover-html clean

all: vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector (the batch engine, the kernels'
# pooled scratch and the trace recorder are exercised concurrently).
race:
	$(GO) test -race ./...

# The ablations (root package) plus one benchmark per reproduced
# table/figure (internal/experiments), then the solver micro-benchmarks.
bench: bench-lp bench-kernel
	$(GO) test -bench=. -benchmem . ./internal/experiments

# The benchmark program (benchmark/, its own module, which the root's
# build/test/lint patterns do not see) must keep compiling against the
# library and agreeing with BENCHMARK.json: vet it and run its tests.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Step 1 micro-benchmarks (allocations reported): one n=10 f=3
# all-to-all EIG broadcast with a random liar, and the lockstep engine
# alone in two shapes (wide rounds, the acs_protocol epoch;
# TestSyncEngineSteadyStateAllocs pins its per-round allocations). The
# EIG allocation ceiling itself is a tier-1 test
# (TestEIGAllToAllAllocationCeiling).
bench-step1:
	$(GO) test -run '^$$' -bench 'EIGAllToAll|SyncEngineFanout' -benchmem ./internal/broadcast ./internal/sched

# Transport micro-benchmarks (allocations reported): one frame each way
# over a loopback TCP link (Send writing on an idle link, buffered
# reader, Recv), one lockstep round of a 4-node RunSync mesh cluster (one
# bundle per peer per round), and a 20-epoch ACS stream on a 4-node
# loopback-TCP cluster with an equivocator (rounds/epoch and
# frames/epoch reported; 1.4 and 17.4).
bench-transport:
	$(GO) test -run '^$$' -bench 'TCPRoundTrip|RunSyncRound|ACSTCPStream' -benchmem ./internal/transport .

# ACS protocol-layer micro-benchmarks (allocations reported): one counted
# ECHO into a live Bracha instance that sends nothing (0 allocs/op), and
# one epoch of the acs_protocol shape (n=7 f=2 d=1 p=+Inf) on the
# lockstep engine (about 284 allocs and 20 KB per epoch with one vote
# body per link and round; 735 and 29 KB with one message per vote).
# The per-epoch allocation ceiling itself is a tier-1 test
# (TestACSEpochAllocationCeiling).
bench-acs:
	$(GO) test -run '^$$' -bench 'BrachaHandle|ACSEpoch' -benchmem ./internal/broadcast ./internal/acs

# LP-layer micro-benchmarks (allocations reported): build + one-shot
# Solve of the joint n=9 f=2 d=2 Gamma LP and of a small delta*_2 dual
# master, that LP's working family grown from 3 to 10 blocks one block
# at a time (warm by Prepared.Extend, and cold by a Prepare of each grown
# family), the convex support fan of 4 or 16 directions at the same shape,
# one Gamma(S) point at n=9 f=2 d=3, and one delta*_1 and delta*_inf
# at n=7 f=2 d=2 and n=9 f=2 d=3, all three by lazy block generation,
# and InEveryHull on a certified Gamma(S) point at n=9 f=2 d=2. The allocation ceilings of the three lazy entries are
# a tier-1 test (TestLazyHullsAllocationCeiling). Attribution for
# batch_lp; the claim itself is benchmark/run.sh's.
bench-lp:
	$(GO) test -run '^$$' -bench 'SolveGamma|SolveMaster|PreparedExtend|SupportFan|GammaPoint|DeltaStarPoly|InEveryHull' -benchmem ./internal/lp ./internal/relax

# delta*_2 kernel micro-benchmarks (allocations reported) at the
# acs_kernel shape: one Wolfe distance from a point to a 4-point hull in
# R^3, and one cold delta*_2 solve of |S| = 6, f = 2, d = 3. The
# allocation ceilings themselves are tier-1 tests
# (TestDist2AllocationCeiling, TestDeltaStar2AllocationCeiling).
bench-kernel:
	$(GO) test -run '^$$' -bench 'Dist2$$|DeltaStar2$$' -benchmem ./internal/geom ./internal/minimax

# Regenerate every experiment table (E1-E21); fails if any claim breaks.
experiments:
	$(GO) run ./cmd/bvcbench

experiments-quick:
	$(GO) run ./cmd/bvcbench -quick -trials 3

# Randomized invariant hammering across all protocols: fault-free,
# then within-model faults (where a typed degradation fails the seed).
fuzz:
	$(GO) run ./cmd/bvcsoak -budget 2000 -shards 4 -regime none
	$(GO) run ./cmd/bvcsoak -budget 2000 -shards 4 -regime within-model

# Deterministic soak: 50k base seeds on 4 batch workers under the mixed
# fault regime, shrunk reproducers written into corpus/; bvcsoak exits 1
# on a failed seed or an unshrunk failure.
soak:
	$(GO) run ./cmd/bvcsoak -budget 50000 -shards 4 -regime mixed \
		-corpus corpus -summary soak-summary.json

# Replay the committed corpus: every shrunk reproducer and regression
# seed must still produce its recorded outcome and signature.
soak-replay:
	$(GO) run ./cmd/bvcsoak -replay-corpus -corpus corpus

# Streaming-ACS soak: hammer only the ACS protocol (it never joins the
# default roster — that would shift historic corpus seeds).
soak-acs:
	$(GO) run ./cmd/bvcsoak -budget 10000 -shards 4 -regime mixed \
		-protocols acs -corpus corpus -summary soak-acs-summary.json

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (internal/analysis, driven by
# cmd/bvclint): six passes guarding same-Spec-same-bits and the paper's
# thresholds (nodeterminism, maporder, errwrap, floateq, seedflow,
# quorumgate). The one suppression form covers one line:
#   //bvclint:allow <analyzer> -- <justification>
# and a directive that suppresses nothing is itself reported. See
# DESIGN.md §9.
lint:
	$(GO) run ./cmd/bvclint ./...

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
