package transport

// The one machine driver. Every protocol is a set of deterministic
// sched.SyncProcess machines and a plane is where they run: all n in
// one simulated engine, a goroutine each over the in-process mesh, or
// this process's machine alone over TCP. Delivery is a policy: lockstep
// rounds (sched.SyncEngine on the simulation, RunSync's barrier on the
// real planes, same bits), or a sched.Schedule's one-message-at-a-time
// order, which only the simulation's sched.AsyncEngine makes.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"relaxedbvc/internal/sched"
)

// PlaneKind names a message plane, in the facade's TransportKind order.
type PlaneKind int

const (
	PlaneSim PlaneKind = iota
	PlaneMesh
	PlaneTCP
)

// Plane says where RunCluster runs (zero value: the simulation); TCP
// configures this process's endpoint on PlaneTCP.
type Plane struct {
	Kind PlaneKind
	TCP  TCPConfig
}

// Cluster is the outcome of RunCluster.
type Cluster[M sched.SyncProcess] struct {
	// Local lists the ids run in this process (all n on the simulation
	// and the mesh, TCP.Self on TCP); Machines holds them by id.
	Local    []int
	Machines []M
	// Rounds is the same on every plane; Messages counts the protocol
	// messages delivered to local machines.
	Rounds, Messages int
	Steps            int              // deliveries under a schedule (Rounds is then 0)
	Faults           sched.FaultStats // injected link faults (simulation)
	Stats            Stats            // local endpoints' traffic (mesh, TCP)
}

// RunCluster builds one machine per local id and runs the n-machine
// cluster on plane. schedule picks the delivery: nil is lockstep
// rounds, anything else delivers one message at a time in the
// schedule's order. A schedule and faults (may be nil; the seeded link
// faults) are the simulation's and are refused on a real plane; trace
// (may be nil) sees every message delivered to a local machine,
// concurrently from the nodes' goroutines on the mesh. A build error
// aborts before anything is sent; once ctx ends the run stops at its
// next round or delivery with an error matching sched.ErrCanceled and
// ctx's own.
func RunCluster[M sched.SyncProcess](ctx context.Context, plane Plane, n int, schedule sched.Schedule, faults *sched.LinkFaults, trace func(sched.Message), build func(id int) (M, error)) (*Cluster[M], error) {
	run := &Cluster[M]{Machines: make([]M, n)}
	if plane.Kind != PlaneSim {
		switch {
		case schedule != nil:
			return nil, fmt.Errorf("%w: asynchronous delivery order is the Schedule's choice, made by the simulated event-queue engine", ErrUnsupported)
		case faults != nil:
			return nil, fmt.Errorf("%w: seeded link faults run only on the simulation backend", ErrUnsupported)
		}
	}
	lo, hi := 0, n // the local ids
	switch plane.Kind {
	case PlaneSim, PlaneMesh:
	case PlaneTCP:
		if len(plane.TCP.Peers) != n {
			return nil, fmt.Errorf("%w: %d peers for n=%d", ErrBadPeer, len(plane.TCP.Peers), n)
		}
		if lo, hi = plane.TCP.Self, plane.TCP.Self+1; lo < 0 || lo >= n {
			return nil, fmt.Errorf("%w: self id %d outside [0,%d)", ErrBadPeer, lo, n)
		}
	default:
		return nil, fmt.Errorf("%w: plane kind %d", ErrUnsupported, int(plane.Kind))
	}
	run.Local = make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		m, err := build(id)
		if err != nil {
			return nil, err
		}
		run.Local, run.Machines[id] = append(run.Local, id), m
	}
	var err error
	switch plane.Kind {
	case PlaneSim:
		procs := make([]sched.SyncProcess, n)
		for i, m := range run.Machines {
			procs[i] = m
		}
		stop := func() error { return sched.Canceled(ctx) }
		if schedule == nil {
			eng := sched.NewSyncEngine(procs)
			eng.Faults, eng.TraceFn, eng.StopFn = faults, trace, stop
			run.Rounds, err = eng.Run()
			run.Messages, run.Faults = eng.Messages, eng.FaultStats
		} else {
			eng := sched.NewAsyncEngine(procs, schedule)
			eng.Faults, eng.TraceFn, eng.StopFn = faults, trace, stop
			run.Steps, err = eng.Run()
			run.Messages, run.Faults = eng.Messages, eng.FaultStats
		}
	case PlaneMesh:
		eps := make([]endpoint, n)
		for i, node := range NewMesh(n).nodes {
			eps[i] = node
		}
		err = run.drive(ctx, "mesh", eps, trace)
	case PlaneTCP:
		eps := make([]endpoint, n)
		if eps[plane.TCP.Self], err = DialTCP(plane.TCP); err == nil {
			err = run.drive(ctx, "tcp", eps, trace)
		}
	}
	if err != nil {
		if cerr := sched.Canceled(ctx); cerr != nil && !errors.Is(err, sched.ErrCanceled) {
			err = fmt.Errorf("%w: %w", cerr, err)
		}
		return nil, err
	}
	return run, nil
}

type endpoint interface { // what either real plane gives a local node
	Transport
	Instrumented
}

// drive runs every local machine over its endpoint, a goroutine each,
// then closes the endpoints (draining queued frames). The first node to
// fail cancels the rest, else stuck at the round barrier, and its error
// is the run's.
func (run *Cluster[M]) drive(ctx context.Context, plane string, eps []endpoint, trace func(sched.Message)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	fail := func(id int, err error) {
		once.Do(func() { first = fmt.Errorf("%s node %d: %w", plane, id, err) })
		cancel()
	}
	stats := make([]*SyncNodeStats, len(eps))
	for _, id := range run.Local {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var err error
			if stats[id], err = RunSync(ctx, eps[id], run.Machines[id], 0, trace); err != nil {
				fail(id, err)
			}
		}(id)
	}
	wg.Wait()
	for _, id := range run.Local {
		if err := eps[id].Close(); err != nil {
			fail(id, fmt.Errorf("close: %w", err))
		}
		s := eps[id].Stats()
		run.Rounds = stats[id].Rounds
		run.Messages += stats[id].Delivered
		run.Stats.FramesSent += s.FramesSent
		run.Stats.FramesReceived += s.FramesReceived
		run.Stats.BytesSent += s.BytesSent
		run.Stats.Reconnects += s.Reconnects
	}
	return first
}
