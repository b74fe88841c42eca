package batch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/vec"
)

// TestOrderingDeterminism checks that results always land at their
// trial's index regardless of scheduling: trial i returns i, with yields
// sprinkled in to shake up interleavings.
func TestOrderingDeterminism(t *testing.T) {
	const n = 300
	trials := make([]func(context.Context) (int, error), n)
	for i := 0; i < n; i++ {
		i := i
		trials[i] = func(context.Context) (int, error) {
			if i%3 == 0 {
				runtime.Gosched()
			}
			return i, nil
		}
	}
	for _, workers := range []int{1, 2, 8, n} {
		out := Run(context.Background(), Options{Workers: workers}, trials)
		if len(out) != n {
			t.Fatalf("workers=%d: %d results for %d trials", workers, len(out), n)
		}
		for i, r := range out {
			if r.Err != nil || r.Value != i || r.Index != i {
				t.Fatalf("workers=%d: result %d = {Index:%d Value:%d Err:%v}", workers, i, r.Index, r.Value, r.Err)
			}
		}
	}
}

// TestPanicIsolation checks that one panicking trial becomes an ErrPanic
// result without disturbing its neighbors.
func TestPanicIsolation(t *testing.T) {
	trials := []func(context.Context) (string, error){
		func(context.Context) (string, error) { return "a", nil },
		func(context.Context) (string, error) { panic("boom") },
		func(context.Context) (string, error) { return "c", nil },
	}
	out := Run(context.Background(), Options{Workers: 3}, trials)
	if out[0].Err != nil || out[0].Value != "a" || out[2].Err != nil || out[2].Value != "c" {
		t.Fatalf("healthy trials disturbed: %+v", out)
	}
	if !errors.Is(out[1].Err, ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", out[1].Err)
	}
}

// TestCancelSkipsUnstarted cancels the batch from inside trial 0 (single
// worker, so later trials have not started) and checks they are skipped
// with ErrNotStarted while the completed trial is untouched.
func TestCancelSkipsUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trials := make([]func(context.Context) (int, error), 10)
	for i := range trials {
		i := i
		trials[i] = func(context.Context) (int, error) {
			if i == 0 {
				cancel()
			}
			return i, nil
		}
	}
	out := Run(ctx, Options{Workers: 1}, trials)
	if out[0].Err != nil || out[0].Value != 0 {
		t.Fatalf("trial 0 should have completed: %+v", out[0])
	}
	for i := 1; i < len(out); i++ {
		if !errors.Is(out[i].Err, ErrNotStarted) || !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("trial %d: want ErrNotStarted wrapping context.Canceled, got %v", i, out[i].Err)
		}
	}
}

// TestCancelReachesRunningTrial checks that a running trial observes the
// batch cancellation through its context.
func TestCancelReachesRunningTrial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	trials := []func(context.Context) (int, error){
		func(tctx context.Context) (int, error) {
			close(started)
			<-tctx.Done()
			return 0, tctx.Err()
		},
	}
	go func() {
		<-started
		cancel()
	}()
	out := Run(ctx, Options{Workers: 1}, trials)
	if !errors.Is(out[0].Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", out[0].Err)
	}
}

// TestPerTrialDeadline checks that TrialTimeout bounds each trial
// individually without touching the batch context.
func TestPerTrialDeadline(t *testing.T) {
	trials := []func(context.Context) (int, error){
		func(tctx context.Context) (int, error) {
			<-tctx.Done()
			return 0, tctx.Err()
		},
		func(context.Context) (int, error) { return 7, nil },
	}
	out := Run(context.Background(), Options{Workers: 2, TrialTimeout: 20 * time.Millisecond}, trials)
	if !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", out[0].Err)
	}
	if out[1].Err != nil || out[1].Value != 7 {
		t.Fatalf("fast trial should be unaffected: %+v", out[1])
	}
}

// TestConcurrentTrialsSameBits fans identical geometry queries across
// concurrent trials, which share the kernels' pooled scratch, and checks
// (a) no race (run with -race) and (b) bit-identical results.
func TestConcurrentTrialsSameBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sets := make([]*vec.Set, 8)
	queries := make([]vec.V, 8)
	for i := range sets {
		pts := make([]vec.V, 6)
		for j := range pts {
			pts[j] = vec.Of(rng.NormFloat64(), rng.NormFloat64())
		}
		sets[i] = vec.NewSet(pts...)
		queries[i] = vec.Of(rng.NormFloat64(), rng.NormFloat64())
	}
	const n = 64
	trials := make([]func(context.Context) (float64, error), n)
	for i := 0; i < n; i++ {
		i := i
		trials[i] = func(context.Context) (float64, error) {
			d, _ := geom.Dist2(queries[i%8], sets[i%8])
			return d, nil
		}
	}
	out := Run(context.Background(), Options{Workers: 16}, trials)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("trial %d: %v", i, r.Err)
		}
		if base := out[i%8]; r.Value != base.Value {
			t.Fatalf("trial %d: %v differs from trial %d: %v", i, r.Value, i%8, base.Value)
		}
	}
}

// TestMap checks the Map convenience preserves item order.
func TestMap(t *testing.T) {
	items := []int{5, 6, 7}
	out := Map(context.Background(), Options{}, items, func(_ context.Context, x int) (string, error) {
		return fmt.Sprintf("v%d", x), nil
	})
	for i, want := range []string{"v5", "v6", "v7"} {
		if out[i].Err != nil || out[i].Value != want {
			t.Fatalf("Map[%d] = %+v, want %q", i, out[i], want)
		}
	}
}

// TestEmptyBatch checks the degenerate case.
func TestEmptyBatch(t *testing.T) {
	out := Run[int](context.Background(), Options{}, nil)
	if len(out) != 0 {
		t.Fatalf("want empty results, got %d", len(out))
	}
}
