package relaxedbvc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"relaxedbvc/internal/broadcast"
)

// The transport parity contract: a cluster of nodes running over the
// mesh or TCP backends decides bit-for-bit the same vectors as the
// deterministic simulation of the same Spec. These tests pin that
// equality on fingerprints of the outputs (exact binary encodings, no
// tolerance).

// fingerprint encodes a vector exactly (bit-level, no rounding).
func fingerprint(v Vector) string {
	if v == nil {
		return "<nil>"
	}
	return string(broadcast.EncodeVec(v))
}

// setFingerprint encodes a whole multiset exactly.
func setFingerprint(s *PointSet) string {
	if s == nil {
		return "<nil>"
	}
	var out string
	for _, p := range s.Points() {
		out += fingerprint(p)
	}
	return out
}

// parity specs covering every protocol the non-sim backends support,
// with and without a Byzantine adversary.
func paritySpecs() map[string]Spec {
	in4 := []Vector{
		NewVector(0, 0), NewVector(4, 0), NewVector(0, 4), NewVector(3, 3),
	}
	return map[string]Spec{
		"delta-relaxed-p2": {
			Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2, Inputs: in4,
		},
		"delta-relaxed-p1-byz": {
			Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2, NormP: 1, Inputs: in4,
			Byzantine: map[int]ByzantineBehavior{3: Equivocator(NewVector(50, 50), NewVector(-50, -50))},
		},
		"delta-relaxed-p2-byz": {
			Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2, Inputs: in4,
			Byzantine: map[int]ByzantineBehavior{3: Equivocator(NewVector(50, 50), NewVector(-50, -50))},
		},
		"exact": {
			Protocol: ProtocolExact, N: 4, F: 1, D: 2, Inputs: in4,
		},
		"k-relaxed-byz": {
			Protocol: ProtocolKRelaxed, N: 4, F: 1, D: 2, K: 2, Inputs: in4,
			Byzantine: map[int]ByzantineBehavior{2: FixedVector(NewVector(99, -99))},
		},
		"scalar-byz": {
			Protocol: ProtocolScalar, N: 4, F: 1, D: 1,
			Inputs:    []Vector{NewVector(1), NewVector(2), NewVector(7), NewVector(4)},
			Byzantine: map[int]ByzantineBehavior{1: Silent()},
		},
		"n7-f2-delta": {
			Protocol: ProtocolDeltaRelaxed, N: 7, F: 2, D: 3,
			Inputs: []Vector{
				NewVector(0, 0, 0), NewVector(1, 0, 0), NewVector(0, 1, 0),
				NewVector(0, 0, 1), NewVector(1, 1, 0), NewVector(1, 0, 1),
				NewVector(2, 2, 2),
			},
			Byzantine: map[int]ByzantineBehavior{
				5: Equivocator(NewVector(9, 9, 9), NewVector(-9, -9, -9)),
				6: RandomLiar(7, 3, 10),
			},
		},
		// The paper's n=3f+1 bound: the last EIG relay round puts
		// thousands of frames in every inbox before anyone receives.
		"n10-f3-k1": {
			Protocol: ProtocolKRelaxed, N: 10, F: 3, D: 3, K: 1,
			Inputs: []Vector{
				NewVector(0, 0, 0), NewVector(1, 0, 0), NewVector(0, 1, 0),
				NewVector(0, 0, 1), NewVector(1, 1, 0), NewVector(1, 0, 1),
				NewVector(0, 1, 1), NewVector(1, 1, 1), NewVector(2, 2, 2),
				NewVector(-1, 3, 0.5),
			},
		},
		// Convex hull consensus is the same Step 1 with a polytope as the
		// Step-2 choice, at its n = max(3f+1, (d+1)f+1) bound.
		"convex-n4-f1-byz": {
			Protocol: ProtocolConvex, N: 4, F: 1, D: 2, Inputs: in4,
			Byzantine: map[int]ByzantineBehavior{3: RandomLiar(11, 2, 10)},
		},
		"convex-n7-f2-byz": {
			Protocol: ProtocolConvex, N: 7, F: 2, D: 2, Directions: 8,
			Inputs: []Vector{
				NewVector(0, 0), NewVector(4, 0), NewVector(0, 4), NewVector(3, 3),
				NewVector(1, 2), NewVector(2, 1), NewVector(-1, 5),
			},
			Byzantine: map[int]ByzantineBehavior{6: RandomLiar(12, 2, 10)},
		},
		// Signed Step 1: every node derives the simulated PKI from SigSeed.
		"signed-f1-equivocator": {
			Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2, Inputs: in4,
			SignedBroadcast: true, SigSeed: 7,
			ByzantineSigned: map[int]SignedByzantineBehavior{3: SignedEquivocator(map[int]Vector{0: NewVector(9, 9), 1: NewVector(-9, -9)})},
		},
		// n <= 3f, where only signed broadcast agrees. Dolev-Strong is
		// silent from round 2 until it decides at round f: a deadlock rule
		// that fired on silence alone would end these runs on the
		// simulation at f >= 4 but not on the mesh.
		"signed-n7-f5": {
			Protocol: ProtocolDeltaRelaxed, N: 7, F: 5, D: 2, SignedBroadcast: true,
			Inputs: append(in4[:4:4], NewVector(1, 2), NewVector(2, 1), NewVector(-1, 5)),
		},
		"signed-n9-f4-equivocator": {
			Protocol: ProtocolKRelaxed, N: 9, F: 4, D: 2, K: 1, Inputs: append(in4[:4:4],
				NewVector(1, 2), NewVector(2, 1), NewVector(-1, 5), NewVector(5, -1), NewVector(2, 2)),
			SignedBroadcast: true,
			ByzantineSigned: map[int]SignedByzantineBehavior{0: SignedEquivocator(map[int]Vector{2: NewVector(50, 0), 5: NewVector(0, 50)})},
		},
		"iterative-byz": {
			Protocol: ProtocolIterative, N: 5, F: 1, D: 2, Rounds: 4,
			Inputs: append(in4[:4:4], NewVector(1, 2)),
			IterByzantine: map[int]IterByzantine{1: IterByzantineFunc(func(round, to int, _ Vector) Vector {
				return NewVector(float64(10*to-round), float64(-7*to))
			})},
		},
	}
}

// requireParity checks that got matches the simulation result want on
// every decision-relevant field, node by node for the ids in ids.
func requireParity(t *testing.T, want, got *Result, ids []int) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("rounds: got %d, sim %d", got.Rounds, want.Rounds)
	}
	for _, i := range ids {
		if want.Vertices != nil { // ProtocolConvex decides a polytope
			if len(got.Vertices[i]) != len(want.Vertices[i]) {
				t.Errorf("node %d: got %d vertices, sim %d", i, len(got.Vertices[i]), len(want.Vertices[i]))
				continue
			}
			for k, v := range want.Vertices[i] {
				if fingerprint(got.Vertices[i][k]) != fingerprint(v) {
					t.Errorf("node %d vertex %d: got %v, sim %v", i, k, got.Vertices[i][k], v)
				}
			}
			continue
		}
		if fingerprint(got.Outputs[i]) != fingerprint(want.Outputs[i]) {
			t.Errorf("node %d output: got %v, sim %v", i, got.Outputs[i], want.Outputs[i])
		}
		if want.Delta != nil && got.Delta[i] != want.Delta[i] {
			t.Errorf("node %d delta: got %v, sim %v", i, got.Delta[i], want.Delta[i])
		}
		if want.AgreedSet != nil && setFingerprint(got.AgreedSet[i]) != setFingerprint(want.AgreedSet[i]) {
			t.Errorf("node %d agreed set diverges from sim", i)
		}
	}
	// The range history needs every honest estimate: a cluster run here
	// whole reports the simulation's bit for bit, a TCP node none.
	wantRange := want.RangeHistory
	if len(ids) < len(want.Outputs) {
		wantRange = nil
	}
	if fmt.Sprint(floatBits(got.RangeHistory)) != fmt.Sprint(floatBits(wantRange)) {
		t.Errorf("range history: got %v, want %v", got.RangeHistory, wantRange)
	}
}

func floatBits(xs []float64) []uint64 {
	var bits []uint64
	for _, x := range xs {
		bits = append(bits, math.Float64bits(x))
	}
	return bits
}

// runTCPCluster runs spec as an n-process loopback-TCP cluster, one Run
// per node on real sockets, and returns every node's result.
func runTCPCluster(t *testing.T, ctx context.Context, spec Spec) ([]*Result, []error) {
	t.Helper()
	// Bind every node's listener on :0 first so the peer map is complete
	// before any node dials.
	listeners := make([]net.Listener, spec.N)
	peers := make(map[int]string, spec.N)
	for i := 0; i < spec.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	results := make([]*Result, spec.N)
	errs := make([]error, spec.N)
	var wg sync.WaitGroup
	for i := 0; i < spec.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(ctx, spec, WithTransport(Transport{
				Kind: TransportTCP, Self: i, Peers: peers, Listener: listeners[i],
			}))
		}(i)
	}
	wg.Wait()
	return results, errs
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestMeshClusterMatchesSim(t *testing.T) {
	for name, spec := range paritySpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sim, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			mesh, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
			if err != nil {
				t.Fatalf("mesh: %v", err)
			}
			requireParity(t, sim, mesh, allIDs(spec.N))
			if mesh.Messages != sim.Messages {
				t.Errorf("messages: mesh %d, sim %d", mesh.Messages, sim.Messages)
			}
			if mesh.Metrics.Transport != "mesh" {
				t.Errorf("metrics transport label = %q, want mesh", mesh.Metrics.Transport)
			}
			if mesh.Metrics.TransportFramesSent == 0 {
				t.Error("mesh run reported zero frames sent")
			}
		})
	}
}

// TestTCPClusterMatchesSim is the acceptance pin: a 4-node loopback-TCP
// cluster (one Run per node, real sockets) decides the same vectors as
// the simulation of the same Spec, fingerprint-equal.
func TestTCPClusterMatchesSim(t *testing.T) {
	for _, name := range []string{"delta-relaxed-p1-byz", "delta-relaxed-p2-byz", "convex-n4-f1-byz", "convex-n7-f2-byz",
		"signed-f1-equivocator", "signed-n9-f4-equivocator", "iterative-byz"} {
		spec := paritySpecs()[name]
		t.Run(name, func(t *testing.T) {
			sim, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			results, errs := runTCPCluster(t, context.Background(), spec)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("tcp node %d: %v", i, err)
				}
			}
			for i, res := range results {
				// Each TCP Run fills only its own slot.
				requireParity(t, sim, res, []int{i})
				if res.Metrics.Transport != "tcp" {
					t.Errorf("node %d metrics transport label = %q, want tcp", i, res.Metrics.Transport)
				}
			}
		})
	}
}

// TestLargeEIGTreeOnRealPlanes runs n=13 f=4 d=3, the n=3f+1 bound,
// on all three planes. The last relay round lists 11 880 tree nodes per
// body, which the EIG layer cuts into messages of at most 32 KiB plus
// one entry (a 28-byte vector and its 4-byte length) after a 12-byte
// header; mesh and TCP must decide what the simulation does.
func TestLargeEIGTreeOnRealPlanes(t *testing.T) {
	const n, limit = 13, 32<<10 + 12 + 4 + 28
	spec := Spec{Protocol: ProtocolKRelaxed, N: n, F: 4, D: 3, K: 1, Inputs: make([]Vector, n),
		Byzantine: map[int]ByzantineBehavior{5: RandomLiar(13, 3, 10), 12: Equivocator(NewVector(9, 9, 9), NewVector(-9, -9, -9))}}
	for i := range spec.Inputs {
		spec.Inputs[i] = NewVector(float64(i), float64(i*i%7), -float64(i%3))
	}
	var mu sync.Mutex
	largest := 0
	spec.Trace = func(m Message) {
		mu.Lock()
		largest = max(largest, len(m.Data))
		mu.Unlock()
	}
	sim, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	mesh, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	requireParity(t, sim, mesh, allIDs(n))
	results, errs := runTCPCluster(t, context.Background(), spec)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp node %d: %v", i, err)
		}
		requireParity(t, sim, results[i], []int{i})
	}
	if largest > limit || largest < 32<<10 {
		t.Fatalf("largest EIG message %d bytes, want a cut one within %d", largest, limit)
	}
}

func TestNonSimTransportRejectsSimOnlyFeatures(t *testing.T) {
	base := Spec{
		Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2,
		Inputs: []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1)},
	}
	cases := map[string]Spec{
		"async-protocol": func() Spec { s := base; s.Protocol = ProtocolAsync; s.Rounds = 3; return s }(),
		"link-faults": func() Spec {
			s := base
			s.Faults = &LinkFaults{Seed: 1, LinkProfile: LinkProfile{DropProb: 0.1}}
			return s
		}(),
	}
	for name, spec := range cases {
		spec := spec
		t.Run(name, func(t *testing.T) {
			_, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
			if !errors.Is(err, ErrUnsupportedTransport) {
				t.Fatalf("err = %v, want ErrUnsupportedTransport", err)
			}
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("err = %v does not chain ErrTransport", err)
			}
		})
	}
}

func TestRunOptions(t *testing.T) {
	spec := Spec{
		Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2,
		Inputs: []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1)},
	}
	t.Run("metrics sink", func(t *testing.T) {
		var sunk *RunMetrics
		res, err := Run(context.Background(), spec, WithMetricsSink(func(m *RunMetrics) { sunk = m }))
		if err != nil {
			t.Fatal(err)
		}
		if sunk == nil || sunk != res.Metrics {
			t.Fatalf("sink received %p, want result metrics %p", sunk, res.Metrics)
		}
		if sunk.Transport != "sim" {
			t.Errorf("transport label = %q, want sim", sunk.Transport)
		}
	})
	t.Run("same result cold", func(t *testing.T) {
		a, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		requireParity(t, a, b, allIDs(spec.N))
	})
	t.Run("unknown transport kind", func(t *testing.T) {
		_, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportKind(42)}))
		if !errors.Is(err, ErrUnsupportedTransport) {
			t.Fatalf("err = %v, want ErrUnsupportedTransport", err)
		}
	})
}

// TestTCPPeerValidation pins the config-level error paths of the TCP
// backend through the facade.
func TestTCPPeerValidation(t *testing.T) {
	spec := Spec{
		Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 2,
		Inputs: []Vector{NewVector(0, 0), NewVector(1, 0), NewVector(0, 1), NewVector(1, 1)},
	}
	_, err := Run(context.Background(), spec, WithTransport(Transport{
		Kind: TransportTCP, Self: 0,
		Peers: map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"}, // wrong size
	}))
	if !errors.Is(err, ErrBadInputs) {
		t.Fatalf("err = %v, want ErrBadInputs", err)
	}
	_, err = Run(context.Background(), spec, WithTransport(Transport{
		Kind: TransportTCP, Self: 9,
		Peers: map[int]string{0: "a", 1: "b", 2: "c", 3: "d"},
	}))
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	if fmt.Sprint(err) == "" {
		t.Fatal("empty error text")
	}
	// The same peer checks guard every protocol: an out-of-range Self is
	// a typed error before any machine is built, not an index panic.
	for _, self := range []int{7, -1} {
		_, err = Run(context.Background(), acsParitySpec(), WithTransport(Transport{
			Kind: TransportTCP, Self: self,
			Peers: map[int]string{0: "a", 1: "b", 2: "c", 3: "d"},
		}))
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("ACS with Self=%d: err = %v, want ErrTransport", self, err)
		}
	}
}
