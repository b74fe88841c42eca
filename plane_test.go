package relaxedbvc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Every protocol either runs on every plane through the one lockstep
// driver, with the same bits, or is refused off the simulation for a
// stated reason. These tests pin the refusal table (and DESIGN.md's copy
// of it) and the four things the hand-copied runners had let drift:
// registry counters, per-round cancellation, the cancellation error
// chain, and peer validation.

// matrixSpecs holds one small valid instance of every Protocol.
func matrixSpecs() map[Protocol]Spec {
	in4 := []Vector{NewVector(0, 0), NewVector(4, 0), NewVector(0, 4), NewVector(3, 3)}
	in5 := append(append([]Vector(nil), in4...), NewVector(1, 2))
	return map[Protocol]Spec{
		ProtocolDeltaRelaxed: {N: 4, F: 1, D: 2, Inputs: in4},
		ProtocolExact:        {N: 4, F: 1, D: 2, Inputs: in4},
		ProtocolKRelaxed:     {N: 4, F: 1, D: 2, K: 2, Inputs: in4},
		ProtocolScalar:       {N: 4, F: 1, D: 1, Inputs: []Vector{NewVector(1), NewVector(2), NewVector(7), NewVector(4)}},
		ProtocolConvex:       {N: 4, F: 1, D: 2, Inputs: in4},
		ProtocolIterative:    {N: 5, F: 1, D: 2, Rounds: 3, Inputs: in5},
		ProtocolAsync:        {N: 4, F: 1, D: 2, Rounds: 3, Inputs: in4},
		ProtocolK1Async:      {N: 4, F: 1, D: 2, Rounds: 3, Inputs: in4},
		ProtocolACS:          {N: 4, F: 1, D: 2, Inputs: in4},
	}
}

func TestPlaneMatrix(t *testing.T) {
	// The refusals that remain, as DESIGN.md section 11.4 prints them.
	const async = "asynchronous delivery order is the Schedule's choice, made by the simulated event-queue engine"
	refused := map[Protocol]string{ProtocolAsync: async, ProtocolK1Async: async}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	specs := matrixSpecs()
	// Signed broadcast is a Spec feature, not a Protocol; same table.
	signed := specs[ProtocolExact]
	signed.SignedBroadcast = true
	rows := map[string]Spec{"`Spec.SignedBroadcast`": signed}
	for p := ProtocolDeltaRelaxed; p <= ProtocolACS; p++ {
		spec, ok := specs[p]
		if !ok {
			t.Fatalf("no matrix spec for protocol %s", p)
		}
		spec.Protocol = p
		rows[fmt.Sprintf("`%s`", p)] = spec
	}
	for name, spec := range rows {
		row := fmt.Sprintf("| %s | runs | |", name)
		why, no := refused[spec.Protocol]
		if no {
			row = fmt.Sprintf("| %s | `ErrUnsupportedTransport` | %s |", name, why)
		}
		if !strings.Contains(string(design), row) {
			t.Errorf("DESIGN.md section 11.4 lacks the row %q", row)
		}
		sim, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s on sim: %v", name, err)
		}
		mesh, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
		if no {
			if !errors.Is(err, ErrUnsupportedTransport) || !strings.Contains(err.Error(), why) {
				t.Errorf("%s on mesh: err = %v, want ErrUnsupportedTransport (%s)", name, err, why)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s on mesh: %v", name, err)
			continue
		}
		for _, f := range []string{"Outputs", "Delta", "AgreedSet", "Vertices", "RangeHistory", "ACS", "Rounds", "Messages"} {
			got := reflect.ValueOf(*mesh).FieldByName(f).Interface()
			want := reflect.ValueOf(*sim).FieldByName(f).Interface()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s on mesh = %v, on sim %v", name, f, got, want)
			}
		}
	}
}

// TestPlaneMetricsParity: the registry moves by the same amounts
// whichever plane drove the machines, and agrees with Result.Metrics.
func TestPlaneMetricsParity(t *testing.T) {
	counters := []string{
		"consensus_runs_total", "consensus_rounds_total", "consensus_messages_total",
		"broadcast_eig_runs_total", "consensus_eig_tree_nodes_total", "consensus_byzantine_drops_total",
	}
	delta := func(t *testing.T, spec Spec, opts ...Option) (map[string]int64, *Result) {
		t.Helper()
		before := MetricsSnapshot()
		res, err := Run(context.Background(), spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		d := MetricsSnapshot().Diff(before).Counters
		out := make(map[string]int64, len(counters))
		for _, name := range counters {
			out[name] = d[name]
		}
		return out, res
	}
	mesh := WithTransport(Transport{Kind: TransportMesh})
	k1 := paritySpecs()["n7-f2-delta"]
	k1.Protocol, k1.K = ProtocolKRelaxed, 1
	k1.Byzantine = map[int]ByzantineBehavior{6: RandomLiar(7, 3, 10)}
	for name, spec := range map[string]Spec{"exact-n4": paritySpecs()["exact"], "k1-n7-f2-liar": k1} {
		t.Run(name, func(t *testing.T) {
			onSim, res := delta(t, spec)
			onMesh, _ := delta(t, spec, mesh)
			if !reflect.DeepEqual(onSim, onMesh) {
				t.Errorf("registry deltas differ:\n sim  %v\n mesh %v", onSim, onMesh)
			}
			want := map[string]int64{
				"consensus_runs_total": 1, "broadcast_eig_runs_total": 1,
				"consensus_rounds_total":          int64(res.Metrics.Rounds),
				"consensus_messages_total":        int64(res.Metrics.Messages),
				"consensus_eig_tree_nodes_total":  int64(res.Metrics.EIGTreeNodes),
				"consensus_byzantine_drops_total": int64(res.Metrics.ByzantineDrops),
			}
			if !reflect.DeepEqual(onSim, want) {
				t.Errorf("registry deltas %v disagree with Result.Metrics %v", onSim, want)
			}
		})
	}
	t.Run("acs-stream", func(t *testing.T) {
		spec := acsParitySpec()
		sim := runACSSim(t, spec)
		onMesh, err := Run(context.Background(), spec, mesh)
		if err != nil {
			t.Fatal(err)
		}
		onTCP, errs := runTCPCluster(t, context.Background(), spec)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for name, m := range map[string]*RunMetrics{"mesh": onMesh.Metrics, "tcp": onTCP[0].Metrics} {
			if m.ACSEpochs != sim.Metrics.ACSEpochs || m.ACSSlots != sim.Metrics.ACSSlots || m.ABARounds != sim.Metrics.ABARounds {
				t.Errorf("%s: epochs/slots/ABA rounds %d/%d/%d, sim %d/%d/%d", name,
					m.ACSEpochs, m.ACSSlots, m.ABARounds, sim.Metrics.ACSEpochs, sim.Metrics.ACSSlots, sim.Metrics.ABARounds)
			}
			if m.TransportFramesSent == 0 || m.TransportFramesReceived == 0 {
				t.Errorf("%s: transport frames sent/received %d/%d, want both > 0", name, m.TransportFramesSent, m.TransportFramesReceived)
			}
		}
	})
}

// TestCancelStopsStep1: Step 1 polls ctx every round on the simulation,
// so a run cancelled while round 0 is delivered never delivers round 2.
func TestCancelStopsStep1(t *testing.T) {
	spec := paritySpecs()["n10-f3-k1"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	latest := -1 // the simulation calls the hook from one goroutine
	spec.Trace = func(m Message) {
		cancel()
		latest = max(latest, m.SentRound)
	}
	_, err := Run(ctx, spec)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled and context.Canceled", err)
	}
	if latest >= 2 {
		t.Fatalf("a message sent in round %d was delivered after the cancel", latest)
	}
}

// TestCancelErrorChain: on every plane a run whose deadline expires
// returns an error matching ErrCanceled and the context's own error.
func TestCancelErrorChain(t *testing.T) {
	// The trace hook holds node 0 at its first delivered message until
	// the deadline, so its peers are parked at the next round's barrier
	// (or the engine inside the hook) when it expires.
	stall := func(ctx context.Context) func(Message) {
		return func(m Message) {
			if m.To == 0 {
				<-ctx.Done()
			}
		}
	}
	check := func(t *testing.T, plane string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want ErrCanceled and context.DeadlineExceeded", plane, err)
		}
	}
	for name, spec := range map[string]Spec{"sync": paritySpecs()["exact"], "acs": acsParitySpec()} {
		t.Run(name, func(t *testing.T) {
			for _, plane := range []string{"sim", "mesh", "tcp"} {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				spec.Trace = stall(ctx)
				switch plane {
				case "sim":
					_, err := Run(ctx, spec)
					check(t, plane, err)
				case "mesh":
					_, err := Run(ctx, spec, WithTransport(Transport{Kind: TransportMesh}))
					check(t, plane, err)
				case "tcp":
					_, errs := runTCPCluster(t, ctx, spec)
					for _, err := range errs {
						check(t, plane, err)
					}
				}
				cancel()
			}
		})
	}
}
