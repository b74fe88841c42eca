package main

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	bvc "relaxedbvc"
)

// A bvcnode cluster decides what the simulation of the same instance
// decides. These tests build four nodes the way main does (buildSpec,
// a peer list, a default input and a front-door queue), run them over
// loopback TCP, and compare every node's decision record — the JSON
// GET /decision serves — with the record the simulation implies.

var inputs4 = []bvc.Vector{bvc.NewVector(0, 0), bvc.NewVector(4, 0), bvc.NewVector(0, 4), bvc.NewVector(3, 3)}

// loopbackPeers reserves n loopback addresses for the nodes to listen on.
func loopbackPeers(t *testing.T, n int) map[int]string {
	t.Helper()
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		peers[i] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// cluster builds one nodeState per peer from the flags main would parse,
// with inputs4[i] as node i's -input.
func cluster(t *testing.T, protocol string, stream bool) []*nodeState {
	t.Helper()
	spec, err := buildSpec(protocol, 1, 2, 2, 2, stream)
	if err != nil {
		t.Fatal(err)
	}
	peers := loopbackPeers(t, len(inputs4))
	spec.N = len(peers)
	nodes := make([]*nodeState, spec.N)
	for i := range nodes {
		nodes[i] = &nodeState{spec: spec, self: i, peers: peers, defIn: inputs4[i], proposals: make(chan bvc.Vector, proposalQueueCap)}
	}
	return nodes
}

// runAll runs fn on every node concurrently and fails on any error.
func runAll(t *testing.T, nodes []*nodeState, fn func(context.Context, *nodeState) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *nodeState) {
			defer wg.Done()
			errs[i] = fn(ctx, n)
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

// requireRecord compares node's decision record with want as JSON, the
// bytes GET /decision serves (shortest round-trip floats, so equal
// JSON means equal bits).
func requireRecord(t *testing.T, node *nodeState, want *decisionRecord) {
	t.Helper()
	got, err := json.Marshal(node.decision)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(exp) {
		t.Errorf("node %d decision record\n got %s\nsim %s", node.self, got, exp)
	}
}

func TestRunEpochMatchesSim(t *testing.T) {
	nodes := cluster(t, "algo", false)
	// Node 2's input arrives through the front-door queue instead.
	nodes[2].defIn = bvc.NewVector(0, 0)
	nodes[2].proposals <- inputs4[2]
	runAll(t, nodes, func(ctx context.Context, n *nodeState) error { return n.runEpoch(ctx, 0) })

	spec := nodes[0].spec
	spec.Inputs = inputs4
	sim, err := bvc.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i, n := range nodes {
		requireRecord(t, n, &decisionRecord{
			Epoch: 0, Node: i, Input: inputs4[i],
			Output: sim.Outputs[i], Delta: sim.Delta[i], Rounds: sim.Rounds,
		})
	}
}

func TestRunStreamMatchesSim(t *testing.T) {
	const epochs = 3
	nodes := cluster(t, "algo", true)
	// Node 0 proposes through the front door for the first two epochs
	// and falls back to its -input for the third.
	early := []bvc.Vector{bvc.NewVector(1, 1), bvc.NewVector(-2, 5)}
	for _, v := range early {
		nodes[0].proposals <- v
	}
	runAll(t, nodes, func(ctx context.Context, n *nodeState) error { return n.runStream(ctx, epochs) })

	spec := nodes[0].spec
	spec.Proposals = make([][]bvc.Vector, epochs)
	for e := range spec.Proposals {
		spec.Proposals[e] = append([]bvc.Vector(nil), inputs4...)
	}
	spec.Proposals[0][0], spec.Proposals[1][0] = early[0], early[1]
	sim, err := bvc.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i, n := range nodes {
		stream := sim.ACS[i]
		if len(stream) != epochs {
			t.Fatalf("sim node %d sealed %d epochs, want %d", i, len(stream), epochs)
		}
		last := stream[epochs-1]
		requireRecord(t, n, &decisionRecord{
			Epoch: last.Epoch, Node: i, Input: inputs4[i],
			Output: last.Output, Delta: last.Delta, Rounds: sim.Rounds,
			Subset: last.Subset, Fingerprint: bvc.ACSFingerprint(stream),
		})
	}
}
