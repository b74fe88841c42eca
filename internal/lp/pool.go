package lp

import (
	"sync"

	"relaxedbvc/internal/metrics"
)

// Solver observability: every objective solved bumps lp_solves_total,
// every Prepare (one per Problem.Solve) lp_phase1_runs_total, so
// solves / phase-1 runs is the number of objectives a feasible basis
// served and lp_phase1_pivots_total / lp_pivots_total the share of
// pivoting that no objective influenced; Extend's phase-1 pivots count
// in both. lp_warm_attempts_total counts Extend calls and
// lp_warm_hits_total those that ended with a feasible basis, so hits /
// attempts is the warm start's hit rate. lp_ws_pool_gets_total counts
// workspaces drawn from the pool (a PrepareInto on a held workspace
// draws none) and lp_ws_pool_news_total the pool misses that allocated
// a fresh one, so gets-vs-news is the sync.Pool churn (steady state:
// news flat, gets climbing). lp_pivots_per_solve observes once per
// objective: its phase-2 pivots, plus the phase-1 pivots not yet
// reported for the first objective solved after a Prepare or Extend.
var (
	lpSolves       = metrics.DefaultCounter("lp_solves_total")
	lpPivots       = metrics.DefaultCounter("lp_pivots_total")
	lpPhase1Runs   = metrics.DefaultCounter("lp_phase1_runs_total")
	lpPhase1Pivots = metrics.DefaultCounter("lp_phase1_pivots_total")
	lpWarmAttempts = metrics.DefaultCounter("lp_warm_attempts_total")
	lpWarmHits     = metrics.DefaultCounter("lp_warm_hits_total")
	lpPivotsPerRun = metrics.DefaultHistogram("lp_pivots_per_solve", metrics.CountBuckets())
	lpPoolGets     = metrics.DefaultCounter("lp_ws_pool_gets_total")
	lpPoolNews     = metrics.DefaultCounter("lp_ws_pool_news_total")
	lpIterLimited  = metrics.DefaultCounter("lp_iteration_limit_total")
	lpInfeasible   = metrics.DefaultCounter("lp_infeasible_total")
	// lp_problem_resets_total counts Problem.Reset calls: each one is a
	// constraint-storage reuse instead of a fresh NewProblem allocation.
	lpProblemResets = metrics.DefaultCounter("lp_problem_resets_total")
)

// wsPool recycles workspaces: Prepare draws one and the Prepared owns
// it until Release.
var wsPool = sync.Pool{New: func() any {
	lpPoolNews.Inc()
	return new(workspace)
}}
