package acs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// panicValue returns what fn panics with (nil if it returns).
func panicValue(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestLaneRunsJobsInOrder queues epoch kernels on one lane, in epoch
// order, and requires each decision to equal the inline kernel on the
// same inputs.
func TestLaneRunsJobsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	props := genProposals(rng, 12, 7, 2)
	lane := NewLane()
	decs := make([]EpochDecision, len(props))
	for e := range decs {
		decs[e] = EpochDecision{Epoch: e, Values: props[e]}
		lane.push(&decs[e], 2, 2)
	}
	lane.Wait()
	for e, d := range decs {
		out, delta := decideEpoch(props[e], 2, 2)
		if !d.Output.Equal(out) || d.Delta != delta {
			t.Fatalf("epoch %d: lane decided %v (delta %v), inline %v (delta %v)", e, d.Output, d.Delta, out, delta)
		}
	}
}

// TestLaneForwardsPanic plants a kernel job that panics (f = |S| is
// outside the kernel's domain) between two good ones: the lane must run
// the others, and Wait must re-raise the job's panic value on the calling
// goroutine.
func TestLaneForwardsPanic(t *testing.T) {
	bad := []vec.V{vec.New(2)}
	want := panicValue(func() { decideEpoch(bad, 1, 2) })
	if want == nil {
		t.Fatal("the planted job's kernel call does not panic")
	}
	good := genProposals(rand.New(rand.NewSource(5)), 2, 4, 2)
	decs := []EpochDecision{{Values: good[0]}, {Values: bad}, {Values: good[1]}}
	lane := NewLane()
	for i := range decs {
		lane.push(&decs[i], 1, 2)
	}
	if got := panicValue(lane.Wait); got != want {
		t.Fatalf("Wait panicked with %v, want %v", got, want)
	}
	if decs[0].Output == nil || decs[2].Output == nil {
		t.Fatal("the jobs around the panicking one did not run")
	}
	if got := panicValue(lane.Wait); got != want {
		t.Fatalf("a second Wait panicked with %v, want %v", got, want)
	}
}

// TestNodeDecisionsForwardKernelPanic runs a cluster whose kernel panics
// on every epoch (p < 1 is outside its domain). The engine itself must
// finish — the kernel no longer runs inside a Step — and Decisions must
// re-raise the kernel's panic on the calling goroutine.
func TestNodeDecisionsForwardKernelPanic(t *testing.T) {
	const p = 0.5
	props := genProposals(rand.New(rand.NewSource(9)), 3, 4, 2)
	want := panicValue(func() { decideEpoch(props[0], 1, p) })
	if want == nil {
		t.Fatal("the kernel does not panic at p < 1")
	}
	nodes, procs := newCluster(t, Config{N: 4, F: 1, D: 2, NormP: p}, props, nil)
	eng := sched.NewSyncEngine(procs)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := panicValue(func() { nodes[0].Decisions() }); got != want {
		t.Fatalf("Decisions panicked with %v, want %v", got, want)
	}
	if eng.Messages == 0 {
		t.Fatal("the stream sent nothing")
	}
}

// valuesKey names a job's kernel inputs by their bits.
func valuesKey(values []vec.V, f int, p float64) string {
	key := fmt.Sprint(f, math.Float64bits(p))
	for _, v := range values {
		for _, x := range v {
			key += fmt.Sprint(",", math.Float64bits(x))
		}
		key += ";"
	}
	return key
}

// TestACSLaneSharesEpochKernels runs 7 local nodes, one of them an
// equivocator, on one lane whose kernel counts its calls, over a stream
// long enough to reuse every ring slot's groups: each distinct (epoch,
// values) must be computed once, every decision must equal the inline
// kernel's bit for bit, and no two nodes' Outputs may share a backing
// array.
func TestACSLaneSharesEpochKernels(t *testing.T) {
	const epochs = laneEpochs + pipelineDepth
	var mu sync.Mutex
	calls := map[string]int{}
	lane := newLane(func(values []vec.V, f int, p float64) (vec.V, float64) {
		mu.Lock()
		calls[valuesKey(values, f, p)]++
		mu.Unlock()
		return decideEpoch(values, f, p)
	})
	cfg := Config{N: 7, F: 2, D: 3, NormP: 2, Lane: lane}
	props := genProposals(rand.New(rand.NewSource(11)), epochs, cfg.N, cfg.D)
	nodes, procs := newCluster(t, cfg, props, map[int]Behavior{6: Equivocate})
	if _, err := sched.NewSyncEngine(procs).Run(); err != nil {
		t.Fatal(err)
	}
	jobs := map[string]bool{}
	outputs := map[*float64]int{}
	for i, node := range nodes {
		decs := node.Decisions()
		if len(decs) != epochs {
			t.Fatalf("node %d sealed %d of %d epochs", i, len(decs), epochs)
		}
		for _, d := range decs {
			jobs[fmt.Sprint(d.Epoch, ":", valuesKey(d.Values, cfg.F, cfg.NormP))] = true
			out, delta := decideEpoch(d.Values, cfg.F, cfg.NormP)
			if !d.Output.Equal(out) || math.Float64bits(d.Delta) != math.Float64bits(delta) {
				t.Fatalf("node %d epoch %d: lane decided %v (delta %v), inline %v (delta %v)", i, d.Epoch, d.Output, d.Delta, out, delta)
			}
			if j, shared := outputs[&d.Output[0]]; shared {
				t.Fatalf("node %d epoch %d: Output shares its backing array with node %d's", i, d.Epoch, j)
			}
			outputs[&d.Output[0]] = i
		}
	}
	total := 0
	for key, n := range calls {
		if n != 1 {
			t.Fatalf("kernel ran %d times on one input: %s", n, key)
		}
		total++
	}
	if total != len(jobs) {
		t.Fatalf("%d kernel runs for %d distinct (epoch, values) jobs", total, len(jobs))
	}
	t.Logf("%d nodes x %d epochs: %d kernel runs", len(nodes), epochs, total)
}

// TestACSLaneOverlapsEpochs queues two epochs on a lane whose kernel
// blocks until released: with GOMAXPROCS >= 2 both must be in flight
// at once, and Wait must return only after both decided.
func TestACSLaneOverlapsEpochs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one worker at GOMAXPROCS 1")
	}
	started, release := make(chan struct{}, 2), make(chan struct{})
	lane := newLane(func(values []vec.V, f int, p float64) (vec.V, float64) {
		started <- struct{}{}
		<-release
		return values[0].Clone(), 0
	})
	props := genProposals(rand.New(rand.NewSource(13)), 2, 4, 2)
	decs := []EpochDecision{{Epoch: 0, Values: props[0]}, {Epoch: 1, Values: props[1]}}
	for i := range decs {
		lane.push(&decs[i], 1, 2)
	}
	for k := range decs {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("%d of 2 epoch kernels in flight", k)
		}
	}
	close(release)
	lane.Wait()
	for i, d := range decs {
		if !d.Output.Equal(props[i][0]) {
			t.Fatalf("epoch %d decided %v, want %v", i, d.Output, props[i][0])
		}
	}
}
