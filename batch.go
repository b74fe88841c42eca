package relaxedbvc

// Batch execution: fan independent consensus instances across a bounded
// worker pool. The heavy lifting lives in internal/batch; this file is
// the public surface, phrased in terms of Spec and Result.

import (
	"context"
	"time"

	"relaxedbvc/internal/batch"
)

// Batch error sentinels, re-exported from the engine so errors.Is works
// across the API boundary.
var (
	// ErrTrialPanic wraps a recovered panic from one batch trial.
	ErrTrialPanic = batch.ErrPanic
	// ErrTrialNotStarted wraps the context error of trials still queued
	// when the batch context was canceled.
	ErrTrialNotStarted = batch.ErrNotStarted
)

// BatchOptions tunes RunBatch. The zero value is ready to use.
type BatchOptions struct {
	// Workers bounds the goroutine pool (0 = GOMAXPROCS, capped at the
	// spec count).
	Workers int
	// TrialTimeout, when positive, gives each spec its own deadline on
	// top of the batch context.
	TrialTimeout time.Duration
}

// BatchResult is the outcome of one spec in a batch.
type BatchResult struct {
	// Index is the spec's position in the input slice (results are
	// already in input order; the field makes that checkable).
	Index int
	// Result is the run's outcome (nil when Err != nil).
	Result *Result
	// Err is the run's error, a wrapped ErrTrialPanic, or a wrapped
	// ErrTrialNotStarted when the batch was canceled first.
	Err error
	// Elapsed is the spec's wall-clock duration (0 for unstarted specs).
	Elapsed time.Duration
}

// RunBatch executes every spec concurrently on a bounded worker pool and
// returns one BatchResult per spec, in input order regardless of
// scheduling. It never returns an error itself: per-spec failures
// (including panics and cancellation) are recorded in the corresponding
// BatchResult.Err.
//
// Trials share no kernel results: each Run shares its Step-2 kernel
// calls among its own processes only, so two identical specs each pay
// for their solves.
func RunBatch(ctx context.Context, opts BatchOptions, specs []Spec) []BatchResult {
	inner := batch.Map(ctx, batch.Options{
		Workers:      opts.Workers,
		TrialTimeout: opts.TrialTimeout,
	}, specs, func(tctx context.Context, spec Spec) (*Result, error) {
		return Run(tctx, spec)
	})
	out := make([]BatchResult, len(inner))
	for i, r := range inner {
		out[i] = BatchResult{Index: r.Index, Result: r.Value, Err: r.Err, Elapsed: r.Elapsed}
	}
	return out
}

// FirstBatchErr returns the first (lowest-index) error in a batch, or
// nil when every spec succeeded.
func FirstBatchErr(results []BatchResult) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
