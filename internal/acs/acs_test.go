package acs

import (
	"errors"
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// buildCluster creates n nodes with the given behaviors and per-epoch
// proposals (proposals[e][i] = node i's epoch-e proposal).
func buildCluster(t *testing.T, n, f, d int, proposals [][]vec.V, behaviors map[int]Behavior) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		own := make([]vec.V, len(proposals))
		for e := range proposals {
			own[e] = proposals[e][i]
		}
		cfg := Config{N: n, F: f, Self: i, D: d, Proposals: own, Behavior: behaviors[i]}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

func runCluster(t *testing.T, nodes []*Node, faults *sched.LinkFaults) *sched.SyncEngine {
	t.Helper()
	procs := make([]sched.SyncProcess, len(nodes))
	for i, n := range nodes {
		procs[i] = n
	}
	eng := sched.NewSyncEngine(procs)
	eng.Faults = faults
	if _, err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for _, n := range nodes {
		n.Decisions() // join the kernel lanes
	}
	return eng
}

func genProposals(rng *rand.Rand, epochs, n, d int) [][]vec.V {
	out := make([][]vec.V, epochs)
	for e := range out {
		out[e] = make([]vec.V, n)
		for i := range out[e] {
			v := vec.New(d)
			for j := range v {
				v[j] = (rng.Float64() - 0.5) * 4
			}
			out[e][i] = v
		}
	}
	return out
}

func TestACSHonestStream(t *testing.T) {
	const n, f, d, epochs = 4, 1, 2, 3
	rng := rand.New(rand.NewSource(7))
	props := genProposals(rng, epochs, n, d)
	nodes := buildCluster(t, n, f, d, props, nil)
	runCluster(t, nodes, nil)
	ref := nodes[0].Decisions()
	if len(ref) != epochs {
		t.Fatalf("node 0 sealed %d epochs, want %d", len(ref), epochs)
	}
	refFP := Fingerprint(ref)
	for i, node := range nodes {
		if got := Fingerprint(node.Decisions()); got != refFP {
			t.Fatalf("node %d decision fingerprint diverged", i)
		}
	}
	for e, dec := range ref {
		if dec.Epoch != e {
			t.Fatalf("epoch %d decision labeled %d (order broken)", e, dec.Epoch)
		}
		if len(dec.Subset) < n-f {
			t.Fatalf("epoch %d subset %v smaller than n-f", e, dec.Subset)
		}
		// Honest fault-free cluster: every slot delivers and is accepted.
		if len(dec.Subset) != n {
			t.Fatalf("epoch %d fault-free subset %v != all slots", e, dec.Subset)
		}
		for i, s := range dec.Subset {
			if !dec.Values[i].Equal(props[e][s]) {
				t.Fatalf("epoch %d slot %d value %v != proposal %v", e, s, dec.Values[i], props[e][s])
			}
		}
	}
}

func TestACSEquivocatorExcluded(t *testing.T) {
	const n, f, d, epochs = 4, 1, 2, 2
	rng := rand.New(rand.NewSource(11))
	props := genProposals(rng, epochs, n, d)
	nodes := buildCluster(t, n, f, d, props, map[int]Behavior{3: Equivocate})
	runCluster(t, nodes, nil)
	refFP := Fingerprint(nodes[0].Decisions())
	for i := 0; i < 3; i++ {
		if Fingerprint(nodes[i].Decisions()) != refFP {
			t.Fatalf("honest node %d diverged", i)
		}
	}
	for e, dec := range nodes[0].Decisions() {
		if len(dec.Subset) < n-f {
			t.Fatalf("epoch %d subset %v too small", e, dec.Subset)
		}
		for _, s := range dec.Subset {
			if s == 3 {
				t.Fatalf("epoch %d accepted the equivocator's slot: %v", e, dec.Subset)
			}
		}
	}
}

func TestACSMuteTolerated(t *testing.T) {
	const n, f, d, epochs = 4, 1, 3, 2
	rng := rand.New(rand.NewSource(13))
	props := genProposals(rng, epochs, n, d)
	nodes := buildCluster(t, n, f, d, props, map[int]Behavior{1: Mute})
	runCluster(t, nodes, nil)
	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		dec := nodes[i].Decisions()
		if len(dec) != epochs {
			t.Fatalf("node %d sealed %d epochs, want %d", i, len(dec), epochs)
		}
		for e, ep := range dec {
			if len(ep.Subset) < n-f {
				t.Fatalf("epoch %d subset %v too small", e, ep.Subset)
			}
			for _, s := range ep.Subset {
				if s == 1 {
					t.Fatalf("epoch %d accepted the mute slot", e)
				}
			}
		}
	}
}

func TestACSDuplicationWithinModel(t *testing.T) {
	// Within-model lockstep faults (pure duplication) must not change
	// the decision stream: the state machines deduplicate by sender.
	const n, f, d, epochs = 4, 1, 2, 3
	rng := rand.New(rand.NewSource(17))
	props := genProposals(rng, epochs, n, d)

	clean := buildCluster(t, n, f, d, props, nil)
	runCluster(t, clean, nil)
	want := Fingerprint(clean[0].Decisions())

	dup := buildCluster(t, n, f, d, props, nil)
	runCluster(t, dup, &sched.LinkFaults{Seed: 99, LinkProfile: sched.LinkProfile{DupProb: 0.6}})
	for i := range dup {
		if got := Fingerprint(dup[i].Decisions()); got != want {
			t.Fatalf("node %d decisions changed under duplication", i)
		}
	}
}

func TestACSStatsAndPrune(t *testing.T) {
	const n, f, d, epochs = 4, 1, 2, 4
	rng := rand.New(rand.NewSource(19))
	props := genProposals(rng, epochs, n, d)
	nodes := buildCluster(t, n, f, d, props, nil)
	runCluster(t, nodes, nil)
	st := nodes[0].Stats()
	if st.Epochs != epochs {
		t.Fatalf("stats epochs %d != %d", st.Epochs, epochs)
	}
	if st.Slots < epochs*(n-f) {
		t.Fatalf("stats slots %d below the subset floor", st.Slots)
	}
	if st.ABARounds < st.Slots {
		t.Fatalf("ABARounds %d below one round per decided slot", st.ABARounds)
	}
	// Sealed-past epochs are garbage-collected (one epoch of slack).
	for i, node := range nodes {
		if held := node.heldEpochs(); held > 2 {
			t.Fatalf("node %d retains %d epoch states after pruning", i, held)
		}
	}
}

func TestABACoinDeterministic(t *testing.T) {
	for e := 0; e < 3; e++ {
		for s := 0; s < 3; s++ {
			for r := 0; r < 8; r++ {
				if coin(e, s, r) != coin(e, s, r) {
					t.Fatal("coin not deterministic")
				}
			}
		}
	}
	// The coin must not be constant across rounds (termination relies on
	// it eventually matching the unanimous estimate).
	seen := map[byte]bool{}
	for r := 0; r < 16; r++ {
		seen[coin(0, 0, r)] = true
	}
	if len(seen) != 2 {
		t.Fatal("coin constant over 16 rounds")
	}
}

func TestACSConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 4, F: 0, Self: 0, D: 2},
		{N: 3, F: 1, Self: 0, D: 2},
		{N: 4, F: 1, Self: 4, D: 2},
		{N: 4, F: 1, Self: 0, D: 0},
		{N: 4, F: 1, Self: 0, D: 2, Proposals: []vec.V{vec.Of(1, 2, 3)}},
	}
	for i, cfg := range bad {
		if _, err := NewNode(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// The wire names a process in 16 bits: at n = 2^16+1, process 2^16's
// INIT would read as process 0's and its ABA votes would land on slot 0.
// Such a cluster is refused before any node exists.
func TestACSRefusesIDsPast16Bits(t *testing.T) {
	if _, err := NewNode(Config{N: MaxProcesses + 1, F: 1, D: 1}); !errors.Is(err, ErrTooManyProcesses) {
		t.Fatalf("n = 2^16+1: err = %v, want ErrTooManyProcesses", err)
	}
	if _, err := NewNode(Config{N: MaxProcesses, F: 1, Self: MaxProcesses - 1, D: 1}); err != nil {
		t.Fatalf("n = 2^16: %v", err)
	}
}

// spanWatch records the most epochs a node ever held open.
type spanWatch struct {
	*Node
	span *int
}

func (w *spanWatch) Step(round int, delivered []sched.Message) []sched.Outgoing {
	outs := w.Node.Step(round, delivered)
	if !w.done {
		*w.span = max(*w.span, w.unsealed())
	}
	return outs
}

// pipelineRounds is the lockstep round bound of an epochs-long stream:
// a new epoch every round, and the last ones drain the pipeline.
func pipelineRounds(epochs int) int { return epochs + 2*pipelineDepth }

// A node opens an epoch in every round in which fewer than pipelineDepth
// are unsealed. With an equivocating proposer an epoch takes nine
// lockstep rounds, its zero-filled slot needing two ABA rounds after the
// 0-votes, so the pipeline fills: a 40-epoch n = 7 stream takes at most
// epochs + 2·pipelineDepth rounds (204 when only two epochs overlapped),
// and no node ever holds more than pipelineDepth epochs unsealed.
func TestACSOverlappedEpochPeriod(t *testing.T) {
	const n, f, d, epochs = 7, 2, 2, 40
	props := genProposals(rand.New(rand.NewSource(41)), epochs, n, d)
	nodes, procs := newCluster(t, Config{N: n, F: f, D: d}, props, map[int]Behavior{n - 1: Equivocate})
	span := 0
	for i := range procs {
		procs[i] = &spanWatch{Node: nodes[i], span: &span}
	}
	rounds, err := sched.NewSyncEngine(procs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := pipelineRounds(epochs); rounds > want {
		t.Errorf("%d epochs took %d rounds, want at most %d", epochs, rounds, want)
	}
	if span != pipelineDepth {
		t.Errorf("nodes held at most %d epochs unsealed, want %d", span, pipelineDepth)
	}
	for i, node := range nodes[:n-1] {
		if got := len(node.Decisions()); got != epochs {
			t.Fatalf("node %d sealed %d of %d epochs", i, got, epochs)
		}
	}
	t.Logf("%d epochs in %d rounds", epochs, rounds)
}
