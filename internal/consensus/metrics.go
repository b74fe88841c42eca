package consensus

// Engine observability, published into the process-wide default metrics
// registry. These counters back the reproduced paper claims: rounds and
// messages are the complexity quantities of Theorems 1-6 (f+1 broadcast
// rounds, O(n^(f+1)) oral messages), Byzantine drops and EIG tree nodes
// come from Step-1 broadcast (see internal/broadcast), and the Step-2
// choice time is where the delta*-relaxation LP/minimax work of Table 1
// lands. Per-run values are carried on the result structs and surfaced
// as RunMetrics by the root package's Run.
//
// The counters are bumped by the internal Run* entry points directly, so
// they fire whether a run comes through the public Spec API or a caller
// (the experiment harness) invokes the engines directly.

import "relaxedbvc/internal/metrics"

var (
	runsTotal     = metrics.DefaultCounter("consensus_runs_total")
	roundsTotal   = metrics.DefaultCounter("consensus_rounds_total")
	messagesTotal = metrics.DefaultCounter("consensus_messages_total")
	errorsTotal   = metrics.DefaultCounter("consensus_errors_total")
	step2Seconds  = metrics.DefaultHistogram("consensus_step2_seconds", metrics.TimeBuckets())
	asyncRuns     = metrics.DefaultCounter("consensus_async_runs_total")
	iterRuns      = metrics.DefaultCounter("consensus_iterative_runs_total")
)
