package relaxedbvc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
)

// Streaming-parity contract: the ACS decision stream — every sealed
// epoch's agreed subset, the subset's values, and the decided vector —
// is bit-for-bit identical across the simulation, the mesh and a real
// loopback-TCP cluster of the same Spec, with a scripted equivocator in
// the mix and (on the sim) within-model link faults.

// acsParitySpec is the canonical 4-node streaming instance: three
// epochs of proposals, node 3 equivocating per recipient.
func acsParitySpec() Spec {
	return Spec{
		Protocol: ProtocolACS, N: 4, F: 1, D: 2,
		Proposals: [][]Vector{
			{NewVector(0, 0), NewVector(4, 0), NewVector(0, 4), NewVector(3, 3)},
			{NewVector(1, 1), NewVector(5, 1), NewVector(1, 5), NewVector(-2, 2)},
			{NewVector(2, -1), NewVector(0, 3), NewVector(-3, 0), NewVector(6, 6)},
		},
		ACSByzantine: map[int]ACSBehavior{3: ACSEquivocate},
	}
}

// requireACSStream checks one node's stream against the sim reference.
func requireACSStream(t *testing.T, want, got *Result, i int) {
	t.Helper()
	if ACSFingerprint(got.ACS[i]) != ACSFingerprint(want.ACS[i]) {
		t.Errorf("node %d decision stream diverges from sim:\n got %+v\n sim %+v", i, got.ACS[i], want.ACS[i])
	}
	if fingerprint(got.Outputs[i]) != fingerprint(want.Outputs[i]) {
		t.Errorf("node %d output: got %v, sim %v", i, got.Outputs[i], want.Outputs[i])
	}
	if got.Delta[i] != want.Delta[i] {
		t.Errorf("node %d delta: got %v, sim %v", i, got.Delta[i], want.Delta[i])
	}
}

// runACSSim executes the reference simulation and sanity-checks the
// stream shape before any parity comparison.
func runACSSim(t *testing.T, spec Spec) *Result {
	t.Helper()
	sim, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	epochs := len(spec.Proposals)
	for i := 0; i < spec.N; i++ {
		if _, byz := spec.ACSByzantine[i]; byz {
			continue
		}
		if len(sim.ACS[i]) != epochs {
			t.Fatalf("sim node %d sealed %d epochs, want %d", i, len(sim.ACS[i]), epochs)
		}
		for e, ep := range sim.ACS[i] {
			if len(ep.Subset) < spec.N-spec.F {
				t.Fatalf("sim node %d epoch %d subset %v below n-f", i, e, ep.Subset)
			}
			for _, s := range ep.Subset {
				if _, byz := spec.ACSByzantine[s]; byz {
					t.Fatalf("sim epoch %d accepted the adversary's slot: %v", e, ep.Subset)
				}
			}
		}
	}
	return sim
}

func TestACSMeshStreamMatchesSim(t *testing.T) {
	spec := acsParitySpec()
	sim := runACSSim(t, spec)
	mesh, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	for i := 0; i < spec.N; i++ {
		requireACSStream(t, sim, mesh, i)
	}
	if mesh.Rounds != sim.Rounds {
		t.Errorf("rounds: mesh %d, sim %d", mesh.Rounds, sim.Rounds)
	}
	if mesh.Metrics.ACSEpochs != sim.Metrics.ACSEpochs {
		t.Errorf("acs epochs: mesh %d, sim %d", mesh.Metrics.ACSEpochs, sim.Metrics.ACSEpochs)
	}
	if mesh.Metrics.Transport != "mesh" {
		t.Errorf("metrics transport label = %q, want mesh", mesh.Metrics.Transport)
	}
}

// TestACSTCPStreamMatchesSim is the streaming acceptance pin: a 4-node
// loopback-TCP cluster with one scripted equivocator decides the same
// multi-epoch slot sequence as the simulation, fingerprint-equal.
func TestACSTCPStreamMatchesSim(t *testing.T) {
	spec := acsParitySpec()
	sim := runACSSim(t, spec)

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
			results[i], errs[i] = Run(context.Background(), spec, WithTransport(Transport{
				Kind: TransportTCP, Self: i, Peers: peers, Listener: listeners[i],
			}))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp node %d: %v", i, err)
		}
	}
	for i, res := range results {
		// Each TCP Run fills only its own slot.
		requireACSStream(t, sim, res, i)
		if res.Metrics.Transport != "tcp" {
			t.Errorf("node %d metrics transport label = %q, want tcp", i, res.Metrics.Transport)
		}
	}
}

func TestACSSimWithinModelFaultsMatchClean(t *testing.T) {
	// Pure duplication is within the lockstep delivery model, so the
	// decision stream must not move; the sim remains the fingerprint
	// reference for fault-free transports.
	spec := acsParitySpec()
	clean := runACSSim(t, spec)

	faulty := spec
	faulty.Faults = &LinkFaults{Seed: 4242, LinkProfile: LinkProfile{DupProb: 0.5}}
	res, err := Run(context.Background(), faulty)
	if err != nil {
		t.Fatalf("faulty sim: %v", err)
	}
	for i := 0; i < spec.N; i++ {
		requireACSStream(t, clean, res, i)
	}
	if res.Metrics.LinkDuplicates == 0 {
		t.Fatal("fault policy injected no duplicates; the run exercised nothing")
	}
}

func TestACSMuteStream(t *testing.T) {
	spec := acsParitySpec()
	spec.ACSByzantine = map[int]ACSBehavior{1: ACSMute}
	sim := runACSSim(t, spec)
	mesh, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	for i := 0; i < spec.N; i++ {
		if i == 1 {
			continue // the mute node seals nothing on either backend
		}
		requireACSStream(t, sim, mesh, i)
	}
}

func TestACSSingleEpochFromInputs(t *testing.T) {
	// Proposals == nil falls back to one epoch proposing Spec.Inputs.
	spec := Spec{
		Protocol: ProtocolACS, N: 4, F: 1, D: 2,
		Inputs: []Vector{NewVector(0, 0), NewVector(4, 0), NewVector(0, 4), NewVector(3, 3)},
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.N; i++ {
		if len(res.ACS[i]) != 1 {
			t.Fatalf("node %d sealed %d epochs, want 1", i, len(res.ACS[i]))
		}
		if len(res.Outputs[i]) != spec.D {
			t.Fatalf("node %d output %v not mirrored from the epoch", i, res.Outputs[i])
		}
	}
}

func TestACSTransportRejectsLinkFaults(t *testing.T) {
	spec := acsParitySpec()
	spec.Faults = &LinkFaults{Seed: 1, LinkProfile: LinkProfile{DupProb: 0.2}}
	_, err := Run(context.Background(), spec, WithTransport(Transport{Kind: TransportMesh}))
	if !errors.Is(err, ErrUnsupportedTransport) {
		t.Fatalf("err = %v, want ErrUnsupportedTransport", err)
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v does not chain ErrTransport", err)
	}
}

func TestACSSpecValidation(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Spec)
		want   error
	}{
		"too few processes": {func(s *Spec) { s.N = 3 }, ErrTooFewProcesses},
		"zero faults":       {func(s *Spec) { s.F = 0 }, ErrTooManyFaults},
		"too many scripted": {
			func(s *Spec) {
				s.ACSByzantine = map[int]ACSBehavior{2: ACSMute, 3: ACSMute}
			},
			ErrTooManyFaults,
		},
		"no proposals":     {func(s *Spec) { s.Proposals, s.Inputs = nil, nil }, ErrBadInputs},
		"ragged epoch":     {func(s *Spec) { s.Proposals[1] = s.Proposals[1][:3] }, ErrBadInputs},
		"wrong dim":        {func(s *Spec) { s.Proposals[0][2] = NewVector(1) }, ErrBadInputs},
		"ids past 16 bits": {func(s *Spec) { s.N = 1<<16 + 1 }, ErrBadInputs},
		"bad dimension":    {func(s *Spec) { s.D = 0 }, ErrBadDimension},
		"bad norm":         {func(s *Spec) { s.NormP = 0.5 }, ErrBadNorm},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			spec := acsParitySpec()
			tc.mutate(&spec)
			_, err := Run(context.Background(), spec)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// BenchmarkACSTCPStream runs a 20-epoch ACS stream on a 4-node
// loopback-TCP cluster, node 3 equivocating, one stream per iteration
// (listeners bound off the clock). It reports the lockstep rounds and
// the frames all nodes sent per epoch: a node opens epoch e+1 in the
// round in which epoch e casts its 0-votes, so an epoch takes 5 rounds
// and 4·3·5 = 60 frames once the stream is under way.
func BenchmarkACSTCPStream(b *testing.B) {
	const n, epochs = 4, 20
	rng := rand.New(rand.NewSource(1))
	spec := Spec{
		Protocol: ProtocolACS, N: n, F: 1, D: 2,
		Proposals:    make([][]Vector, epochs),
		ACSByzantine: map[int]ACSBehavior{n - 1: ACSEquivocate},
	}
	for e := range spec.Proposals {
		spec.Proposals[e] = make([]Vector, n)
		for i := range spec.Proposals[e] {
			spec.Proposals[e][i] = NewVector(rng.Float64(), rng.Float64())
		}
	}
	b.ReportAllocs()
	var rounds, frames int64
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		listeners := make([]net.Listener, n)
		peers := make(map[int]string, n)
		for i := range listeners {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatalf("listen %d: %v", i, err)
			}
			listeners[i], peers[i] = ln, ln.Addr().String()
		}
		b.StartTimer()
		results := make([]*Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = Run(context.Background(), spec, WithTransport(Transport{
					Kind: TransportTCP, Self: i, Peers: peers, Listener: listeners[i],
				}))
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		rounds += int64(results[0].Rounds)
		for _, res := range results {
			frames += res.Metrics.TransportFramesSent
		}
	}
	b.ReportMetric(float64(rounds)/float64(b.N*epochs), "rounds/epoch")
	b.ReportMetric(float64(frames)/float64(b.N*epochs), "frames/epoch")
}
