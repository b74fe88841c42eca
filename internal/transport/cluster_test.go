package transport

// The driver on toy machines: lockstep gives the same inboxes on the
// simulation and the mesh, nothing is sent after a build error, one
// failing node takes its peers down with it instead of hanging them,
// and a schedule delivers one message a Step on the simulation only.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"relaxedbvc/internal/sched"
)

func scripted(id int) (*scriptProc, error) { return &scriptProc{outs: mixedOuts(id)}, nil }

func TestRunLockstepSimMatchesMesh(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var traced int
	sim, err := RunCluster(ctx, Plane{}, 3, nil, nil, func(sched.Message) { traced++ }, scripted)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := RunCluster(ctx, Plane{Kind: PlaneMesh}, 3, nil, nil, nil, scripted)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Rounds != mesh.Rounds || sim.Messages != mesh.Messages || sim.Messages != traced || traced == 0 {
		t.Errorf("rounds/messages: sim %d/%d (traced %d), mesh %d/%d", sim.Rounds, sim.Messages, traced, mesh.Rounds, mesh.Messages)
	}
	if !reflect.DeepEqual(sim.Local, []int{0, 1, 2}) || !reflect.DeepEqual(mesh.Local, sim.Local) {
		t.Errorf("local ids: sim %v, mesh %v", sim.Local, mesh.Local)
	}
	if sim.Stats != (Stats{}) || mesh.Stats.FramesSent == 0 || mesh.Stats.FramesSent != mesh.Stats.FramesReceived {
		t.Errorf("traffic: sim %+v, mesh %+v", sim.Stats, mesh.Stats)
	}
	for id := range sim.Machines {
		want := sim.Machines[id].inboxes
		if !reflect.DeepEqual(mesh.Machines[id].inboxes, want) {
			t.Errorf("node %d inboxes differ:\n mesh %v\n sim  %v", id, mesh.Machines[id].inboxes, want)
		}
		for r, inbox := range want {
			sorted := append([]sched.Message(nil), inbox...)
			sched.SortInbox(sorted)
			if !reflect.DeepEqual(sorted, inbox) {
				t.Errorf("node %d round %d inbox is not in sched.SortInbox order: %v", id, r, inbox)
			}
		}
	}
}

// startCounter counts Start calls: a machine that started has sent.
type startCounter struct {
	*scriptProc
	started *int
}

func (p startCounter) Start() []sched.Outgoing { *p.started++; return p.scriptProc.Start() }

func TestRunLockstepBuildErrorSendsNothing(t *testing.T) {
	errBuild := errors.New("no machine for node 2")
	for _, kind := range []PlaneKind{PlaneSim, PlaneMesh} {
		started := 0
		_, err := RunCluster(context.Background(), Plane{Kind: kind}, 3, nil, nil, nil, func(id int) (startCounter, error) {
			if id == 2 {
				return startCounter{}, errBuild
			}
			return startCounter{&scriptProc{outs: mixedOuts(id)}, &started}, nil
		})
		if !errors.Is(err, errBuild) || started != 0 {
			t.Errorf("plane %d: err = %v with %d machines started, want the build error and none", kind, err, started)
		}
	}
}

func TestRunLockstepNodeFailureCancelsPeers(t *testing.T) {
	// Node 1 addresses a node that does not exist in round 1; its peers
	// are by then waiting for its round-2 bundle.
	done := make(chan error, 1)
	go func() {
		_, err := RunCluster(context.Background(), Plane{Kind: PlaneMesh}, 3, nil, nil, nil, func(id int) (*scriptProc, error) {
			p := &scriptProc{outs: mixedOuts(id)}
			if id == 1 {
				p.outs[2] = []sched.Outgoing{{To: 9, Tag: "m"}}
			}
			return p, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBadPeer) || !strings.Contains(fmt.Sprint(err), "mesh node 1:") || errors.Is(err, sched.ErrCanceled) {
			t.Fatalf("err = %v, want node 1's ErrBadPeer, not a cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peers of the failed node still wait at the barrier")
	}
}

func TestRunLockstepRefusals(t *testing.T) {
	peers := map[int]string{0: "a", 1: "b", 2: "c"}
	faults := &sched.LinkFaults{Seed: 1}
	fifo := sched.FIFOSchedule{}
	cases := map[string]struct {
		plane    Plane
		schedule sched.Schedule
		faults   *sched.LinkFaults
		want     error
	}{
		"faults on mesh":    {Plane{Kind: PlaneMesh}, nil, faults, ErrUnsupported},
		"faults on tcp":     {Plane{Kind: PlaneTCP, TCP: TCPConfig{Peers: peers}}, nil, faults, ErrUnsupported},
		"schedule on mesh":  {Plane{Kind: PlaneMesh}, fifo, nil, ErrUnsupported},
		"schedule on tcp":   {Plane{Kind: PlaneTCP, TCP: TCPConfig{Peers: peers}}, fifo, faults, ErrUnsupported},
		"unknown plane":     {Plane{Kind: 7}, nil, nil, ErrUnsupported},
		"peers for other n": {Plane{Kind: PlaneTCP, TCP: TCPConfig{Peers: map[int]string{0: "a", 1: "b"}}}, nil, nil, ErrBadPeer},
		"self too large":    {Plane{Kind: PlaneTCP, TCP: TCPConfig{Self: 3, Peers: peers}}, nil, nil, ErrBadPeer},
		"self negative":     {Plane{Kind: PlaneTCP, TCP: TCPConfig{Self: -1, Peers: peers}}, nil, nil, ErrBadPeer},
	}
	for name, tc := range cases {
		built := false
		_, err := RunCluster(context.Background(), tc.plane, 3, tc.schedule, tc.faults, nil, func(id int) (*scriptProc, error) {
			built = true
			return scripted(id)
		})
		if !errors.Is(err, tc.want) || built {
			t.Errorf("%s: err = %v (machine built: %v), want %v before any build", name, err, built, tc.want)
		}
	}
}

func TestRunLockstepCanceled(t *testing.T) {
	for _, kind := range []PlaneKind{PlaneSim, PlaneMesh} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunCluster(ctx, Plane{Kind: kind}, 3, nil, nil, nil, scripted)
		if !errors.Is(err, sched.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("plane %d: err = %v, want sched.ErrCanceled and context.Canceled", kind, err)
		}
	}
}

// inboxLog broadcasts one message and records every inbox it is given.
type inboxLog struct{ inboxes [][]sched.Message }

func (p *inboxLog) Start() []sched.Outgoing {
	return []sched.Outgoing{{To: sched.Broadcast, Tag: "hi"}}
}

func (p *inboxLog) Step(_ int, delivered []sched.Message) []sched.Outgoing {
	p.inboxes = append(p.inboxes, append([]sched.Message(nil), delivered...))
	return nil
}

func (p *inboxLog) Done() bool { return false }

// TestRunClusterSchedule: under a schedule the simulation steps each
// machine once per delivered message, in the schedule's order, and
// counts deliveries as Steps.
func TestRunClusterSchedule(t *testing.T) {
	var traced []sched.Message
	run, err := RunCluster(context.Background(), Plane{}, 3, sched.LIFOSchedule{}, nil, func(m sched.Message) { traced = append(traced, m) },
		func(int) (*inboxLog, error) { return &inboxLog{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if run.Rounds != 0 || run.Steps != 6 || run.Messages != 6 || len(traced) != 6 {
		t.Fatalf("rounds/steps/messages/traced = %d/%d/%d/%d, want 0/6/6/6", run.Rounds, run.Steps, run.Messages, len(traced))
	}
	if first := traced[0]; first.From != 2 || first.To != 1 {
		t.Errorf("first delivery %d->%d, want LIFO's newest send 2->1", first.From, first.To)
	}
	for id, m := range run.Machines {
		if len(m.inboxes) != 2 {
			t.Fatalf("machine %d stepped %d times, want once per peer", id, len(m.inboxes))
		}
		for _, inbox := range m.inboxes {
			if len(inbox) != 1 || inbox[0].To != id {
				t.Errorf("machine %d inbox %v, want one message addressed to it", id, inbox)
			}
		}
	}
}
