package batch

import (
	"context"
	"errors"
	"sync"
	"testing"

	"relaxedbvc/internal/metrics"
)

// TestMetricsUnderConcurrentLoad hammers the engine's counters, gauges
// and latency histogram from a full worker pool while snapshots are
// taken concurrently; run with -race this doubles as the data-race
// check for the metrics hot paths.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	const trialsN = 400
	before := metrics.Snap()

	var snapWG sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 4; s++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = metrics.Snap()
				}
			}
		}()
	}

	trials := make([]func(context.Context) (int, error), trialsN)
	for i := range trials {
		i := i
		trials[i] = func(context.Context) (int, error) {
			if i%7 == 0 {
				return 0, errors.New("synthetic failure")
			}
			if i%31 == 0 {
				panic("synthetic panic")
			}
			return i, nil
		}
	}
	results := Run(context.Background(), Options{Workers: 8}, trials)
	close(stop)
	snapWG.Wait()

	after := metrics.Snap()
	d := after.Diff(before)
	if got := d.Counters["batch_trials_total"]; got != trialsN {
		t.Fatalf("batch_trials_total delta = %d, want %d", got, trialsN)
	}
	if got := d.Histograms["batch_trial_seconds"].Count; got != trialsN {
		t.Fatalf("batch_trial_seconds count delta = %d, want %d", got, trialsN)
	}
	wantPanics, wantErrs := 0, 0
	for i := 0; i < trialsN; i++ {
		switch {
		case i%7 == 0:
			wantErrs++
		case i%31 == 0:
			wantPanics++
			wantErrs++
		}
	}
	if got := d.Counters["batch_panics_total"]; got != int64(wantPanics) {
		t.Fatalf("batch_panics_total delta = %d, want %d", got, wantPanics)
	}
	if got := d.Counters["batch_trial_errors_total"]; got != int64(wantErrs) {
		t.Fatalf("batch_trial_errors_total delta = %d, want %d", got, wantErrs)
	}
	if got := after.Gauges["batch_queue_depth"]; got != 0 {
		t.Fatalf("batch_queue_depth = %d after the batch drained, want 0", got)
	}
	if got := after.Gauges["batch_inflight"]; got != 0 {
		t.Fatalf("batch_inflight = %d after the batch drained, want 0", got)
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if failed != wantErrs {
		t.Fatalf("%d results carry an error, want %d", failed, wantErrs)
	}
}

// TestMetricsCountCancellations checks that trials skipped by a
// canceled batch context land in the cancellation counter.
func TestMetricsCountCancellations(t *testing.T) {
	before := metrics.Snap()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trials := make([]func(context.Context) (int, error), 50)
	for i := range trials {
		trials[i] = func(context.Context) (int, error) { return 0, nil }
	}
	Run(ctx, Options{Workers: 4}, trials)
	d := metrics.Snap().Diff(before)
	if got := d.Counters["batch_cancellations_total"]; got != 50 {
		t.Fatalf("batch_cancellations_total delta = %d, want 50", got)
	}
}
