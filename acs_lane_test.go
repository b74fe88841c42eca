package relaxedbvc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The ACS epoch kernel runs on a lane, off the protocol path. These tests
// pin what the lane must not change: a kernel panic still leaves Run on
// its caller's goroutine (and RunBatch still reports it), and no goroutine
// a Run starts outlives it, whichever way the run ends.

// hugeSpec is a 4-node ACS stream whose δ*₂ kernel panics: one proposal
// at 1e308 sends Wolfe's min-norm step out of range. want is the panic of
// the same kernel call made directly.
func hugeSpec(t *testing.T) (spec Spec, want string) {
	t.Helper()
	props := []Vector{NewVector(1e308, 1e308), NewVector(1, 1), NewVector(2, 1), NewVector(3, 1)}
	set := NewPointSet()
	for _, v := range props {
		set.Append(v)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				want = fmt.Sprint(r)
			}
		}()
		ComputeDeltaStar(set, 1, 2) //nolint:errcheck // only the panic matters
	}()
	if want == "" {
		t.Fatal("the kernel no longer panics on this input; plant another panicking one")
	}
	return Spec{Protocol: ProtocolACS, N: 4, F: 1, D: 2, NormP: 2, Proposals: [][]Vector{props}}, want
}

func TestACSKernelPanicSurfacesFromRun(t *testing.T) {
	spec, want := hugeSpec(t)
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(context.Background(), spec) //nolint:errcheck // must panic
		return nil
	}()
	if fmt.Sprint(got) != want {
		t.Fatalf("Run panicked with %v, want the kernel's %q", got, want)
	}
	res := RunBatch(context.Background(), BatchOptions{Workers: 2}, []Spec{acsParitySpec(), spec})
	if res[0].Err != nil {
		t.Fatalf("healthy trial: %v", res[0].Err)
	}
	if err := res[1].Err; !errors.Is(err, ErrTrialPanic) || !strings.Contains(err.Error(), want) {
		t.Fatalf("panicking trial: err = %v, want ErrTrialPanic carrying %q", err, want)
	}
}

// streamSpec is a 7-node, 40-epoch ACS stream at d=3 p=2 with an
// equivocator: its cold δ*₂ kernels take about as long as an epoch's
// rounds, so kernel jobs are pending throughout the run.
func streamSpec(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	props := make([][]Vector, 40)
	for e := range props {
		props[e] = make([]Vector, 7)
		for i := range props[e] {
			props[e][i] = NewVector(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
		}
	}
	return Spec{Protocol: ProtocolACS, N: 7, F: 2, D: 3, Proposals: props, ACSByzantine: map[int]ACSBehavior{6: ACSEquivocate}}
}

// cancelAfter makes spec cancel ctx once msgs messages were delivered.
func cancelAfter(spec *Spec, msgs int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	spec.Trace = func(Message) {
		if seen.Add(1) == msgs {
			cancel()
		}
	}
	return ctx, cancel
}

// bundleSolves is the number of δ*₂ cutting-plane solves so far. Every
// epoch of streamSpec (n=7 f=2 d=3) runs one, so it moves while a
// stream's kernels run.
func bundleSolves() int64 {
	return MetricsSnapshot().Histograms["minimax_bundle_iterations"].Count
}

// requireJoined checks that nothing a Run started outlives it: the
// goroutine count comes back to base (polled briefly: a goroutine that
// signalled its end may still be exiting), and no δ*₂ solve ran after Run
// returned, when bundleSolves read at. The run itself must have solved,
// from before, or the last check would pass vacuously.
func requireJoined(t *testing.T, base int, before, at int64) {
	t.Helper()
	if at == before {
		t.Fatal("the run solved no δ*₂ kernel")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	if now := bundleSolves(); now != at {
		t.Fatalf("%d δ*₂ solves after the run returned", now-at)
	}
}

func TestACSRunLeavesNoGoroutines(t *testing.T) {
	for k, plane := range []TransportKind{TransportSim, TransportMesh} {
		opt := WithTransport(Transport{Kind: plane})
		seed := int64(10 * k)
		t.Run(plane.String()+"/completed", func(t *testing.T) {
			base, before := runtime.NumGoroutine(), bundleSolves()
			spec := streamSpec(seed)
			res, err := Run(context.Background(), spec, opt)
			at := bundleSolves()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.ACS[0]) != len(spec.Proposals) {
				t.Fatalf("sealed %d of %d epochs", len(res.ACS[0]), len(spec.Proposals))
			}
			requireJoined(t, base, before, at)
		})
		t.Run(plane.String()+"/canceled", func(t *testing.T) {
			base, before := runtime.NumGoroutine(), bundleSolves()
			spec := streamSpec(seed + 1)
			ctx, cancel := cancelAfter(&spec, 3000) // a few epochs in
			defer cancel()
			_, err := Run(ctx, spec, opt)
			at := bundleSolves()
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			requireJoined(t, base, before, at)
		})
	}
	t.Run("tcp/failed", func(t *testing.T) {
		base, before := runtime.NumGoroutine(), bundleSolves()
		spec := streamSpec(20)
		ctx, cancel := cancelAfter(&spec, 3000)
		defer cancel()
		_, errs := runTCPCluster(t, ctx, spec)
		at := bundleSolves()
		for i, err := range errs {
			if err == nil {
				t.Fatalf("tcp node %d finished a canceled stream", i)
			}
		}
		requireJoined(t, base, before, at)
	})
}

// TestDefaultDimensionRefused gives every protocol a Default of the wrong
// dimension: Run must return ErrBadDimension, never panic.
func TestDefaultDimensionRefused(t *testing.T) {
	specs := matrixSpecs()
	// The shape that used to panic in Step 2: a silent node's slot
	// resolves to the Default.
	in7 := make([]Vector, 7)
	for i := range in7 {
		in7[i] = NewVector(float64(i), float64(i%3))
	}
	silent := Spec{N: 7, F: 2, D: 2, Inputs: in7, Byzantine: map[int]ByzantineBehavior{6: Silent()}}
	for p := ProtocolDeltaRelaxed; p <= ProtocolACS; p++ {
		cases := map[string]Spec{"matrix": specs[p]}
		if p == ProtocolExact || p == ProtocolKRelaxed || p == ProtocolDeltaRelaxed || p == ProtocolConvex {
			cases["silent"] = silent
		}
		for name, spec := range cases {
			spec.Protocol = p
			if p == ProtocolKRelaxed && spec.K == 0 {
				spec.K = 1
			}
			spec.Default = make(Vector, spec.D+1)
			t.Run(fmt.Sprintf("%s/%s", p, name), func(t *testing.T) {
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Run panicked: %v", r)
						}
					}()
					_, err = Run(context.Background(), spec)
				}()
				if !errors.Is(err, ErrBadDimension) {
					t.Fatalf("err = %v, want ErrBadDimension", err)
				}
			})
		}
	}
}
