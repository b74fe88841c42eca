// Package batch is the concurrent trial-execution engine behind the
// library's experiment sweeps and benchmark harnesses.
//
// A batch is an ordered list of independent trials (closures returning a
// value and an error). The engine fans them across a bounded worker pool
// and guarantees:
//
//   - deterministic result ordering: results[i] always belongs to
//     trials[i], whatever interleaving the scheduler produced;
//   - context plumbing: the batch context is passed to every trial,
//     cancellation stops unstarted trials immediately and reaches
//     running trials through their context;
//   - per-trial deadlines: Options.TrialTimeout wraps each trial's
//     context with its own deadline;
//   - panic isolation: a panicking trial is converted into an error
//     (wrapping ErrPanic, with the stack) without taking down the batch
//     or the process.
//
// The engine shares nothing between trials, and the geometry kernels
// keep no cross-trial cache, so a trial's result never depends on which
// other trials ran.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"relaxedbvc/internal/metrics"
)

// ErrPanic wraps a recovered trial panic.
var ErrPanic = errors.New("batch: trial panicked")

// ErrNotStarted wraps the context error of trials that were still queued
// when the batch context was canceled.
var ErrNotStarted = errors.New("batch: trial not started")

// Engine observability, published into the default metrics registry:
// queue depth and in-flight trials are live gauges (watch them via
// -pprof / expvar during a sweep), trial latency is a fixed-bucket
// histogram, and the counters record completed trials, isolated panics
// and cancellation casualties.
var (
	queueDepth    = metrics.DefaultGauge("batch_queue_depth")
	inflight      = metrics.DefaultGauge("batch_inflight")
	trialsTotal   = metrics.DefaultCounter("batch_trials_total")
	trialErrors   = metrics.DefaultCounter("batch_trial_errors_total")
	panicsTotal   = metrics.DefaultCounter("batch_panics_total")
	canceledTotal = metrics.DefaultCounter("batch_cancellations_total")
	trialSeconds  = metrics.DefaultHistogram("batch_trial_seconds", metrics.TimeBuckets())
)

// Options tunes a batch run. The zero value is ready to use.
type Options struct {
	// Workers bounds the goroutine pool (0 = GOMAXPROCS, capped at the
	// trial count).
	Workers int
	// TrialTimeout, when positive, gives each trial its own deadline via
	// context.WithTimeout on top of the batch context.
	TrialTimeout time.Duration
}

// Result is the outcome of one trial.
type Result[T any] struct {
	// Index is the trial's position in the input slice (results are
	// already ordered; the field makes that checkable).
	Index int
	// Value is the trial's return value (zero when Err != nil).
	Value T
	// Err is the trial's error, a wrapped ErrPanic, or a wrapped
	// ErrNotStarted when the batch was canceled first.
	Err error
	// Elapsed is the trial's wall-clock duration (0 for unstarted
	// trials).
	Elapsed time.Duration
}

// Run executes the trials on a bounded worker pool and returns one
// Result per trial, in input order. It never returns an error itself:
// per-trial failures (including panics and cancellation) are recorded in
// the corresponding Result.Err. Run blocks until every started trial has
// returned — cancellation prevents new trials from starting but does not
// abandon running ones, so no trial goroutine outlives the call.
func Run[T any](ctx context.Context, opts Options, trials []func(context.Context) (T, error)) []Result[T] {
	n := len(trials)
	out := make([]Result[T], n)
	if n == 0 {
		return out
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	queueDepth.Add(int64(n))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				queueDepth.Add(-1)
				out[i] = runTrial(ctx, opts, i, trials[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Map runs fn over items with the batch engine and returns the results
// in item order.
func Map[In, Out any](ctx context.Context, opts Options, items []In, fn func(context.Context, In) (Out, error)) []Result[Out] {
	trials := make([]func(context.Context) (Out, error), len(items))
	for i := range items {
		item := items[i]
		trials[i] = func(tctx context.Context) (Out, error) { return fn(tctx, item) }
	}
	return Run(ctx, opts, trials)
}

func runTrial[T any](ctx context.Context, opts Options, i int, trial func(context.Context) (T, error)) (res Result[T]) {
	res.Index = i
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("%w: trial %d: %w", ErrNotStarted, i, err)
		canceledTotal.Inc()
		return res
	}
	tctx := ctx
	if opts.TrialTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, opts.TrialTimeout)
		defer cancel()
	}
	inflight.Add(1)
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("%w: trial %d: %v\n%s", ErrPanic, i, r, debug.Stack())
			panicsTotal.Inc()
		}
		inflight.Add(-1)
		trialsTotal.Inc()
		trialSeconds.Observe(res.Elapsed.Seconds())
		if res.Err != nil {
			trialErrors.Inc()
			if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
				canceledTotal.Inc()
			}
		}
	}()
	res.Value, res.Err = trial(tctx)
	return res
}
