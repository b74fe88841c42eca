package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

func TestVecCodecRoundTrip(t *testing.T) {
	for _, v := range []vec.V{vec.Of(), vec.Of(1.5), vec.Of(-3, 0, 2.25e-10), vec.Of(1e300, -1e-300)} {
		got, err := DecodeVec(EncodeVec(v))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := DecodeVec([]byte{1}); err == nil {
		t.Error("short decode did not error")
	}
	if _, err := DecodeVec([]byte{0, 0, 0, 5, 1, 2}); err == nil {
		t.Error("truncated decode did not error")
	}
}

func TestPathCodec(t *testing.T) {
	for _, p := range [][]int{{}, {0}, {3, 1, 4, 1, 5}} {
		enc := encodePath(p)
		got, rest, err := decodePath(enc, 5)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decodePath error %v rest %v", err, rest)
		}
		if len(got) != len(p) {
			t.Fatalf("%v -> %v", p, got)
		}
		for i := range p {
			if got[i] != p[i] {
				t.Fatalf("%v -> %v", p, got)
			}
		}
	}
}

func honestInputs(n int, base string) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = []byte(fmt.Sprintf("%s-%d", base, i))
	}
	return in
}

// runEngine drives one machine per process on the lockstep engine and
// returns the finished engine for its counters.
func runEngine[M sched.SyncProcess](tb testing.TB, nodes []M, faults *sched.LinkFaults, trace func(sched.Message)) *sched.SyncEngine {
	tb.Helper()
	procs := make([]sched.SyncProcess, len(nodes))
	for i, nd := range nodes {
		procs[i] = nd
	}
	eng := sched.NewSyncEngine(procs)
	eng.Faults, eng.TraceFn = faults, trace
	if _, err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// runEIG is an all-to-all EIG broadcast of inputs; it returns every
// process's decisions and the finished engine.
func runEIG(tb testing.TB, f int, inputs [][]byte, byz map[int]EIGBehavior, def []byte, trace func(sched.Message)) ([][][]byte, []*EIGNode, *sched.SyncEngine) {
	tb.Helper()
	nodes := make([]*EIGNode, len(inputs))
	for i := range nodes {
		nodes[i] = NewEIGNode(len(inputs), f, i, inputs[i], byz[i], def)
	}
	eng := runEngine(tb, nodes, nil, trace)
	return decisions(nodes), nodes, eng
}

// runDS is runEIG's signed twin.
func runDS(tb testing.TB, f int, inputs [][]byte, seed int64, byz map[int]DSBehavior, def []byte) ([][][]byte, *sched.SyncEngine) {
	tb.Helper()
	scheme := NewSigScheme(len(inputs), seed)
	nodes := make([]*DSNode, len(inputs))
	for i := range nodes {
		nodes[i] = NewDSNode(len(inputs), f, i, inputs[i], scheme, byz[i], def)
	}
	eng := runEngine(tb, nodes, nil, nil)
	return decisions(nodes), eng
}

func decisions[M Node](nodes []M) [][][]byte {
	decided := make([][][]byte, len(nodes))
	for i, nd := range nodes {
		decided[i] = nd.Decided()
	}
	return decided
}

func checkEIGAgreementValidity(t *testing.T, n, f int, decided [][][]byte, inputs [][]byte, byz map[int]bool) {
	t.Helper()
	// Agreement: all honest processes decide identically on every
	// commander; Validity: for honest commanders they decide the input.
	var honest []int
	for i := 0; i < n; i++ {
		if !byz[i] {
			honest = append(honest, i)
		}
	}
	ref := decided[honest[0]]
	for _, i := range honest[1:] {
		for c := 0; c < n; c++ {
			if !bytes.Equal(decided[i][c], ref[c]) {
				t.Fatalf("agreement violated: process %d and %d differ on commander %d: %q vs %q",
					honest[0], i, c, ref[c], decided[i][c])
			}
		}
	}
	for _, c := range honest {
		for _, i := range honest {
			if !bytes.Equal(decided[i][c], inputs[c]) {
				t.Fatalf("validity violated: process %d decided %q for honest commander %d (input %q)",
					i, decided[i][c], c, inputs[c])
			}
		}
	}
}

func TestEIGAllHonest(t *testing.T) {
	for _, c := range []struct{ n, f int }{{4, 1}, {5, 1}, {7, 2}} {
		inputs := honestInputs(c.n, "v")
		decided, _, eng := runEIG(t, c.f, inputs, nil, []byte("default"), nil)
		if eng.RoundsRun != c.f+1 {
			t.Errorf("n=%d f=%d rounds = %d, want %d", c.n, c.f, eng.RoundsRun, c.f+1)
		}
		checkEIGAgreementValidity(t, c.n, c.f, decided, inputs, nil)
	}
}

// twoFaced sends different values to low/high recipients, at every relay
// and as commander.
type twoFaced struct{ a, b []byte }

func (tf *twoFaced) RelayValue(instance int, path []int, to int, honest []byte) []byte {
	if to%2 == 0 {
		return tf.a
	}
	return tf.b
}

// silent drops all messages (crash at start).
type silentB struct{}

func (silentB) RelayValue(int, []int, int, []byte) []byte { return nil }

// randomLiar sends per-recipient random garbage.
type randomLiar struct{ rng *rand.Rand }

func (r *randomLiar) RelayValue(instance int, path []int, to int, honest []byte) []byte {
	g := make([]byte, 4)
	r.rng.Read(g)
	return g
}

func TestEIGByzantineLieutenant(t *testing.T) {
	for _, c := range []struct{ n, f int }{{4, 1}, {5, 1}, {7, 2}} {
		for _, mk := range map[string]func() EIGBehavior{
			"twofaced": func() EIGBehavior { return &twoFaced{[]byte("X"), []byte("Y")} },
			"silent":   func() EIGBehavior { return silentB{} },
			"random":   func() EIGBehavior { return &randomLiar{rand.New(rand.NewSource(9))} },
		} {
			inputs := honestInputs(c.n, "v")
			byz := map[int]EIGBehavior{1: mk()}
			byzSet := map[int]bool{1: true}
			if c.f == 2 {
				byz[3] = mk()
				byzSet[3] = true
			}
			decided, _, _ := runEIG(t, c.f, inputs, byz, []byte("default"), nil)
			checkEIGAgreementValidity(t, c.n, c.f, decided, inputs, byzSet)
		}
	}
}

func TestEIGByzantineCommanderStillAgrees(t *testing.T) {
	// The Byzantine process 0 equivocates as commander of its own
	// instance; honest processes must still agree on SOME value for it.
	n, f := 4, 1
	inputs := honestInputs(n, "v")
	byz := map[int]EIGBehavior{0: &twoFaced{[]byte("P"), []byte("Q")}}
	decided, _, _ := runEIG(t, f, inputs, byz, []byte("default"), nil)
	checkEIGAgreementValidity(t, n, f, decided, inputs, map[int]bool{0: true})
}

func TestEIGVectorPayloads(t *testing.T) {
	// End-to-end with encoded vectors, the actual use in Algorithm ALGO.
	n, f := 5, 1
	inputs := make([][]byte, n)
	vecs := make([]vec.V, n)
	for i := range inputs {
		vecs[i] = vec.Of(float64(i), float64(i)*2, -1)
		inputs[i] = EncodeVec(vecs[i])
	}
	decided, _, _ := runEIG(t, f, inputs, map[int]EIGBehavior{2: &twoFaced{EncodeVec(vec.Of(9, 9, 9)), EncodeVec(vec.Of(-9, -9, -9))}}, EncodeVec(vec.New(3)), nil)
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		for c := 0; c < n; c++ {
			v, err := DecodeVec(decided[i][c])
			if err != nil {
				t.Fatalf("process %d commander %d: decode: %v", i, c, err)
			}
			if c != 2 && !v.Equal(vecs[c]) {
				t.Fatalf("process %d decided %v for honest commander %d", i, v, c)
			}
		}
	}
}

func TestDolevStrongHonest(t *testing.T) {
	n, f := 5, 2
	decided, eng := runDS(t, f, honestInputs(n, "hello"), 1, nil, []byte("def"))
	checkEIGAgreementValidity(t, n, f, decided, honestInputs(n, "hello"), nil)
	if eng.RoundsRun != f+1 {
		t.Errorf("rounds = %d", eng.RoundsRun)
	}
}

func TestDolevStrongEquivocatingCommander(t *testing.T) {
	n, f := 4, 1
	beh := map[int]DSBehavior{0: NewDSEquivocator(map[int][]byte{
		1: []byte("A"), 2: []byte("B"), 3: []byte("A"),
	})}
	decided, _ := runDS(t, f, honestInputs(n, "v"), 2, beh, []byte("def"))
	// Agreement among honest (1,2,3) on every commander, validity for
	// the honest ones.
	checkEIGAgreementValidity(t, n, f, decided, honestInputs(n, "v"), map[int]bool{0: true})
	// With an equivocating commander and f=1, honest processes see both
	// values by round f+1 and fall to the default.
	if !bytes.Equal(decided[1][0], []byte("def")) {
		t.Errorf("decided %q, want default", decided[1][0])
	}
}

func TestDolevStrongToleratesLargeF(t *testing.T) {
	// Signed broadcast works even with n = f+2 (no n >= 3f+1 needed),
	// and at f >= 4, silent from round 2 until it decides at round f.
	for _, c := range []struct{ n, f int }{{4, 2}, {6, 4}, {7, 5}} {
		inputs := honestInputs(c.n, "big-f")
		decided, eng := runDS(t, c.f, inputs, 3, nil, []byte("def"))
		checkEIGAgreementValidity(t, c.n, c.f, decided, inputs, nil)
		if eng.RoundsRun != c.f+1 {
			t.Errorf("n=%d f=%d: %d rounds", c.n, c.f, eng.RoundsRun)
		}
	}
}

func TestSigScheme(t *testing.T) {
	s := NewSigScheme(3, 7)
	sig := s.Sign(1, []byte("m"))
	if !s.Verify(1, []byte("m"), sig) {
		t.Error("valid signature rejected")
	}
	if s.Verify(2, []byte("m"), sig) {
		t.Error("signature verified for wrong signer")
	}
	if s.Verify(1, []byte("m2"), sig) {
		t.Error("signature verified for wrong message")
	}
}

// --- Bracha tests ---

// rbcNode broadcasts one value and records deliveries.
type rbcNode struct {
	bs     *BrachaState
	value  []byte
	sender bool
	got    []Delivery
	expect int
	done   bool
}

func (r *rbcNode) Start() []sched.Outgoing {
	if r.sender {
		return r.bs.Broadcast("x", r.value)
	}
	return nil
}

func (r *rbcNode) Step(_ int, delivered []sched.Message) []sched.Outgoing {
	outs := r.bs.Handle(delivered[0]) // the scheduled engine delivers one message a Step
	r.got = append(r.got, r.bs.TakeDeliveries()...)
	if len(r.got) >= r.expect {
		r.done = true
	}
	return outs
}

func (r *rbcNode) Done() bool { return r.done }

func runBracha(t *testing.T, n, f int, schedule sched.Schedule, byzantine sched.SyncProcess) []*rbcNode {
	t.Helper()
	procs := make([]sched.SyncProcess, n)
	nodes := make([]*rbcNode, n)
	for i := 0; i < n; i++ {
		node := &rbcNode{bs: NewBrachaState(n, f, i), value: []byte("V"), sender: i == 0, expect: 1}
		nodes[i] = node
		procs[i] = node
	}
	if byzantine != nil {
		procs[n-1] = byzantine
		nodes[n-1] = nil
	}
	eng := sched.NewAsyncEngine(procs, schedule)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestBrachaHonestDelivery(t *testing.T) {
	for name, sch := range map[string]sched.Schedule{
		"fifo":   sched.FIFOSchedule{},
		"lifo":   sched.LIFOSchedule{},
		"random": &sched.RandomSchedule{Rng: rand.New(rand.NewSource(4))},
	} {
		nodes := runBracha(t, 4, 1, sch, nil)
		for i, node := range nodes {
			if len(node.got) != 1 || !bytes.Equal(node.got[0].Value, []byte("V")) {
				t.Fatalf("%s: node %d deliveries: %+v", name, i, node.got)
			}
			if node.got[0].Sender != 0 || node.got[0].ID != "x" {
				t.Fatalf("%s: wrong delivery metadata %+v", name, node.got[0])
			}
		}
	}
}

// equivocatingSender sends INIT("A") to half and INIT("B") to the rest.
type equivocatingSender struct {
	n    int
	sent bool
}

func (e *equivocatingSender) Start() []sched.Outgoing {
	var outs []sched.Outgoing
	for to := 1; to < e.n; to++ {
		v := []byte("A")
		if to > e.n/2 {
			v = []byte("B")
		}
		outs = append(outs, sched.Outgoing{To: to, Tag: BrachaTag, Data: encodeRBC(rbcInit, 0, "x", v)})
	}
	e.sent = true
	return outs
}
func (e *equivocatingSender) Step(int, []sched.Message) []sched.Outgoing { return nil }
func (e *equivocatingSender) Done() bool                                 { return e.sent }

func TestBrachaEquivocatingSenderConsistency(t *testing.T) {
	// Byzantine sender (process 0) equivocates; honest processes must not
	// deliver conflicting values. They may deliver nothing (engine drains).
	n, f := 4, 1
	procs := make([]sched.SyncProcess, n)
	nodes := make([]*rbcNode, n)
	procs[0] = &equivocatingSender{n: n}
	for i := 1; i < n; i++ {
		node := &rbcNode{bs: NewBrachaState(n, f, i), expect: 99} // never "done": run to quiescence
		nodes[i] = node
		procs[i] = node
	}
	eng := sched.NewAsyncEngine(procs, sched.FIFOSchedule{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var delivered [][]byte
	for i := 1; i < n; i++ {
		for _, d := range nodes[i].got {
			delivered = append(delivered, d.Value)
		}
	}
	for i := 1; i < len(delivered); i++ {
		if !bytes.Equal(delivered[0], delivered[i]) {
			t.Fatalf("conflicting deliveries: %q vs %q", delivered[0], delivered[i])
		}
	}
}

func TestBrachaImpersonationRejected(t *testing.T) {
	// A process claiming to originate another's INIT is ignored.
	n, f := 4, 1
	bs := NewBrachaState(n, f, 1)
	outs := bs.Handle(sched.Message{From: 2, To: 1, Tag: BrachaTag, Data: encodeRBC(rbcInit, 0, "x", []byte("forged"))})
	if len(outs) != 0 {
		t.Error("forged INIT triggered protocol messages")
	}
}

func TestBrachaMultipleInstances(t *testing.T) {
	// All n processes broadcast concurrently under a random schedule; all
	// honest processes deliver all n values.
	n, f := 4, 1
	type multiNode struct {
		rbcNode
	}
	procs := make([]sched.SyncProcess, n)
	nodes := make([]*rbcNode, n)
	for i := 0; i < n; i++ {
		node := &rbcNode{bs: NewBrachaState(n, f, i), value: []byte{byte('a' + i)}, sender: true, expect: n}
		nodes[i] = node
		procs[i] = node
	}
	eng := sched.NewAsyncEngine(procs, &sched.RandomSchedule{Rng: rand.New(rand.NewSource(5))})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if len(node.got) != n {
			t.Fatalf("node %d delivered %d of %d", i, len(node.got), n)
		}
		seen := map[int]string{}
		for _, d := range node.got {
			seen[d.Sender] = string(d.Value)
		}
		for s := 0; s < n; s++ {
			if seen[s] != string([]byte{byte('a' + s)}) {
				t.Fatalf("node %d: wrong value from %d: %q", i, s, seen[s])
			}
		}
	}
}
