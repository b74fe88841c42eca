package acs

import (
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// panicValue returns what fn panics with (nil if it returns).
func panicValue(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestLaneRunsJobsInOrder queues epoch kernels on one lane and requires
// each decision to equal the inline kernel on the same inputs.
func TestLaneRunsJobsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	props := genProposals(rng, 12, 7, 2)
	lane := NewLane()
	decs := make([]EpochDecision, len(props))
	for e := range decs {
		decs[e] = EpochDecision{Epoch: e, Values: props[e]}
		lane.push(kernelJob{dec: &decs[e], f: 2, p: 2})
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
// outside the kernel's domain) between two good ones: the lane must keep
// draining, and Wait must re-raise the job's panic value on the calling
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
		lane.push(kernelJob{dec: &decs[i], f: 1, p: 2})
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
