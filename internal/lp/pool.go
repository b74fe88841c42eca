package lp

import (
	"sync"

	"relaxedbvc/internal/metrics"
)

// Solver observability: every objective solved bumps lp_solves_total,
// every Prepare (one per Problem.Solve) lp_phase1_runs_total and
// lp_ws_pool_gets_total, so solves / phase-1 runs is the number of
// objectives a feasible basis served and lp_phase1_pivots_total /
// lp_pivots_total the share of pivoting that no objective influenced.
// lp_ws_pool_news_total counts pool misses that allocated a fresh
// workspace, so gets-vs-news is the sync.Pool churn (steady state: news
// flat, gets climbing). lp_pivots_per_solve observes once per objective:
// its phase-2 pivots, plus the phase-1 pivots for the first objective
// solved from a basis.
var (
	lpSolves       = metrics.DefaultCounter("lp_solves_total")
	lpPivots       = metrics.DefaultCounter("lp_pivots_total")
	lpPhase1Runs   = metrics.DefaultCounter("lp_phase1_runs_total")
	lpPhase1Pivots = metrics.DefaultCounter("lp_phase1_pivots_total")
	lpPivotsPerRun = metrics.DefaultHistogram("lp_pivots_per_solve", metrics.CountBuckets())
	lpPoolGets     = metrics.DefaultCounter("lp_ws_pool_gets_total")
	lpPoolNews     = metrics.DefaultCounter("lp_ws_pool_news_total")
	lpIterLimited  = metrics.DefaultCounter("lp_iteration_limit_total")
	lpInfeasible   = metrics.DefaultCounter("lp_infeasible_total")
	// lp_problem_resets_total counts Problem.Reset calls: each one is a
	// constraint-storage reuse instead of a fresh NewProblem allocation.
	lpProblemResets = metrics.DefaultCounter("lp_problem_resets_total")
)

// workspace is a reusable arena for the float and int scratch storage of
// one Prepared: the simplex tableau, its cost rows, the basis and
// substitution bookkeeping, the copy phase 2 pivots on, and the phase-1
// elimination log. Prepare draws a workspace from a sync.Pool and the
// Prepared owns it until Release, so steady-state solves stop allocating
// tableaux — the dominant allocation cost when the geometry predicates
// fire thousands of LPs per consensus trial. Nothing handed out by a
// workspace may outlive that Release; escaping slices (Result.X,
// Result.Dual) are allocated fresh.
type workspace struct {
	f   []float64
	i   []int
	fo  int
	io  int
	log elimLog
}

var wsPool = sync.Pool{New: func() any {
	lpPoolNews.Inc()
	return new(workspace)
}}

func (w *workspace) reset() {
	w.fo, w.io = 0, 0
	w.log.reset()
}

// floats returns a zeroed length-n slice carved out of the arena. The
// slice is full (three-index) so appends by callers cannot clobber
// neighboring grabs.
func (w *workspace) floats(n int) []float64 {
	if w.fo+n > len(w.f) {
		size := 2 * len(w.f)
		if size < n {
			size = n
		}
		if size < 1024 {
			size = 1024
		}
		// Slices handed out earlier keep referencing the old array and
		// stay valid; new grabs come from the fresh one.
		w.f = make([]float64, size)
		w.fo = 0
	}
	s := w.f[w.fo : w.fo+n : w.fo+n]
	w.fo += n
	clear(s)
	return s
}

// ints is the integer-arena analogue of floats.
func (w *workspace) ints(n int) []int {
	if w.io+n > len(w.i) {
		size := 2 * len(w.i)
		if size < n {
			size = n
		}
		if size < 256 {
			size = 256
		}
		w.i = make([]int, size)
		w.io = 0
	}
	s := w.i[w.io : w.io+n : w.io+n]
	w.io += n
	clear(s)
	return s
}
