package broadcast_test

// Golden transcript parity for the all-to-all EIG broadcast. The table
// in testdata/eig_transcripts.json holds per spec the sha256 over every
// delivered message in TraceFn order, the decided values and the run's
// counters, written by eigTranscript below. Its decided, rounds, drops
// and tree-node columns date from the map-keyed EIG tree and have not
// moved since; the trace and message columns were re-recorded when one
// message per tree node became one body per link and round. A mesh
// cluster of transport.RunSync nodes must decide the same values, and
// TestEIGMatchesReference holds the machine to the per-node one it
// replaced on seeded scripts.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"relaxedbvc/internal/adversary"
	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

const eigGoldenDim = 3

// eigGoldenSpec is one frozen run: shape, the behaviour every Byzantine
// process follows, and whether a duplication-only fault policy is on.
type eigGoldenSpec struct {
	n, f     int
	behavior string
	dup      bool
}

func (s eigGoldenSpec) name() string {
	name := fmt.Sprintf("n%d-f%d-%s", s.n, s.f, s.behavior)
	if s.dup {
		name += "-dup"
	}
	return name
}

func eigGoldenSpecs() []eigGoldenSpec {
	var specs []eigGoldenSpec
	for _, shape := range [][2]int{{4, 1}, {7, 2}, {10, 3}, {13, 3}} {
		for _, b := range eigGoldenBehaviors {
			for _, dup := range []bool{false, true} {
				specs = append(specs, eigGoldenSpec{n: shape[0], f: shape[1], behavior: b, dup: dup})
			}
		}
	}
	return specs
}

// eigGoldenBehaviors are the behaviour kinds of the golden table and of
// TestEIGMatchesReference.
var eigGoldenBehaviors = []string{"honest", "silent", "garbage", "randomliar", "relayonlyliar", "equivocator", "perrecipient"}

// goldenBehavior returns a fresh behaviour (a RandomLiar carries RNG
// state) of the given kind for Byzantine process id of n; "honest" is a
// Byzantine process that relays what an honest one would.
func goldenBehavior(kind string, id, n int) broadcast.EIGBehavior {
	switch kind {
	case "honest":
		return adversary.Honest()
	case "silent":
		return adversary.Silent()
	case "garbage":
		return adversary.Garbage()
	case "randomliar":
		return adversary.RandomLiar(int64(100+id), eigGoldenDim, 10)
	case "relayonlyliar":
		return adversary.RelayOnlyLiar(id, vec.Of(7, -7, 7))
	case "equivocator":
		return adversary.Equivocator(vec.Of(9, 9, 9), vec.Of(-9, -9, -9))
	case "perrecipient":
		per := make(map[int]vec.V)
		for to := 0; to < n; to += 2 {
			per[to] = vec.Of(float64(to), float64(id), -1)
		}
		return adversary.PerRecipient(per)
	}
	panic("unknown behaviour " + kind)
}

// byzantine returns fresh behaviours for the spec's Byzantine
// processes: id 1, and id n-1 too when f >= 2 (none when "honest").
func (s eigGoldenSpec) byzantine() map[int]broadcast.EIGBehavior {
	if s.behavior == "honest" {
		return nil
	}
	ids := []int{1}
	if s.f >= 2 {
		ids = append(ids, s.n-1)
	}
	byz := make(map[int]broadcast.EIGBehavior, len(ids))
	for _, id := range ids {
		byz[id] = goldenBehavior(s.behavior, id, s.n)
	}
	return byz
}

func (s eigGoldenSpec) inputs() [][]byte {
	rng := rand.New(rand.NewSource(int64(1000*s.n + s.f)))
	in := make([][]byte, s.n)
	for i := range in {
		v := vec.New(eigGoldenDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		in[i] = broadcast.EncodeVec(v)
	}
	return in
}

func (s eigGoldenSpec) faults() *sched.LinkFaults {
	if !s.dup {
		return nil
	}
	return &sched.LinkFaults{Seed: int64(31*s.n + s.f), LinkProfile: sched.LinkProfile{DupProb: 0.2}}
}

// eigTranscriptRecord is one entry of testdata/eig_transcripts.json.
type eigTranscriptRecord struct {
	Name      string `json:"name"`
	Trace     string `json:"trace_sha256"`
	Decided   string `json:"decided_sha256"`
	Messages  int    `json:"messages"`
	Rounds    int    `json:"rounds"`
	Drops     int    `json:"drops"`
	TreeNodes int    `json:"tree_nodes"`
}

func hashField(h interface{ Write([]byte) (int, error) }, b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	h.Write(l[:])
	h.Write(b)
}

func decidedHash(decided [][][]byte) string {
	h := sha256.New()
	for _, row := range decided {
		hashField(h, []byte{byte(len(row))})
		for _, v := range row {
			hashField(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// eigTranscript runs the spec on the simulator and fingerprints it.
func eigTranscript(s eigGoldenSpec) (eigTranscriptRecord, error) {
	h := sha256.New()
	trace := func(m sched.Message) {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(m.From))
		binary.BigEndian.PutUint32(hdr[4:], uint32(m.To))
		h.Write(hdr[:])
		hashField(h, []byte(m.Tag))
		hashField(h, m.Data)
	}
	def := broadcast.EncodeVec(vec.New(eigGoldenDim))
	inputs, byz := s.inputs(), s.byzantine()
	run, err := transport.RunCluster(context.Background(), transport.Plane{}, s.n, nil, s.faults(), trace, func(id int) (*broadcast.EIGNode, error) {
		return broadcast.NewEIGNode(s.n, s.f, id, inputs[id], byz[id], def), nil
	})
	if err != nil {
		return eigTranscriptRecord{}, err
	}
	rec := eigTranscriptRecord{Name: s.name(), Trace: hex.EncodeToString(h.Sum(nil)), Messages: run.Messages, Rounds: run.Rounds}
	decided := make([][][]byte, s.n)
	for i, node := range run.Machines {
		decided[i] = node.Decided()
		rec.Drops += node.Drops()
		rec.TreeNodes += node.TreeNodes()
	}
	rec.Decided = decidedHash(decided)
	return rec, nil
}

// meshDecided runs the spec as a cluster of RunSync nodes on the
// in-process mesh and returns every node's decided values. The
// deadline turns a stalled barrier into an error instead of a hang.
func meshDecided(s eigGoldenSpec) ([][][]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	mesh := transport.NewMesh(s.n)
	inputs, byz := s.inputs(), s.byzantine()
	def := broadcast.EncodeVec(vec.New(eigGoldenDim))
	nodes := make([]*broadcast.EIGNode, s.n)
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for i := range nodes {
		nodes[i] = broadcast.NewEIGNode(s.n, s.f, i, inputs[i], byz[i], def)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, errs[i] = transport.RunSync(ctx, mesh.Node(i), nodes[i], 0, nil); errs[i] != nil {
				cancel() // unblock peers stuck at the round barrier
			}
		}(i)
	}
	wg.Wait()
	decided := make([][][]byte, s.n)
	for i, node := range nodes {
		if errs[i] != nil {
			return nil, fmt.Errorf("mesh node %d: %w", i, errs[i])
		}
		decided[i] = node.Decided()
	}
	return decided, nil
}

func TestEIGGoldenTranscripts(t *testing.T) {
	raw, err := os.ReadFile("testdata/eig_transcripts.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []eigTranscriptRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]eigTranscriptRecord, len(golden))
	for _, g := range golden {
		want[g.Name] = g
	}
	specs := eigGoldenSpecs()
	if len(want) != len(specs) {
		t.Fatalf("golden table has %d entries, spec list %d", len(want), len(specs))
	}
	for _, s := range specs {
		s := s
		t.Run(s.name(), func(t *testing.T) {
			if testing.Short() && s.n > 10 {
				t.Skip("n=13 skipped in -short")
			}
			t.Parallel()
			got, err := eigTranscript(s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[s.name()] {
				t.Fatalf("transcript differs from the frozen one\n got %+v\nwant %+v", got, want[s.name()])
			}
			if s.dup {
				return
			}
			decided, err := meshDecided(s)
			if err != nil {
				t.Fatal(err)
			}
			if h := decidedHash(decided); h != got.Decided {
				t.Fatalf("mesh cluster decided %s, simulator %s", h, got.Decided)
			}
		})
	}
}

// eigMachine is what TestEIGMatchesReference reads off both machines.
type eigMachine interface {
	sched.SyncProcess
	Decided() [][]byte
	Drops() int
	TreeNodes() int
}

// TestEIGMatchesReference drives EIGNode and the per-node machine it
// replaced (broadcast.RefEIGNode) through the same seeded scripts —
// n in {4, 7, 10, 13} with f up to the golden table's (the n >= 3f+1
// bound but for n=13, whose f=4 tree is 9x f=3's), every golden
// behaviour on random Byzantine ids, inputs that repeat, are empty or
// are nil, duplication faults on and off — and requires the same
// rounds, and at every process the same decisions, drops and tree
// nodes.
func TestEIGMatchesReference(t *testing.T) {
	scripts, byzantine := 0, 0
	for _, shape := range []struct{ n, maxF, scripts int }{{4, 1, 400}, {7, 2, 400}, {10, 3, 300}, {13, 3, 100}} {
		n := shape.n
		for seed := 0; seed < shape.scripts; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*n + seed)))
			f := rng.Intn(shape.maxF + 1)
			kinds := make(map[int]string)
			for _, id := range rng.Perm(n)[:min(f, rng.Intn(f+2))] { // f Byzantine twice as often
				kinds[id] = eigGoldenBehaviors[rng.Intn(len(eigGoldenBehaviors))]
			}
			d := 1 + rng.Intn(eigGoldenDim)
			inputs := make([][]byte, n)
			for i := range inputs {
				switch r := rng.Intn(12); {
				case r == 0: // a process with nothing to say
				case r == 1:
					inputs[i] = []byte{}
				case r < 5 && i > 0:
					inputs[i] = inputs[rng.Intn(i)] // repeats make majorities tie
				default:
					v := vec.New(d)
					for j := range v {
						v[j] = rng.NormFloat64()
					}
					inputs[i] = broadcast.EncodeVec(v)
				}
			}
			var faults *sched.LinkFaults
			if rng.Intn(2) == 0 {
				faults = &sched.LinkFaults{Seed: rng.Int63(), LinkProfile: sched.LinkProfile{DupProb: 0.2}}
			}
			def := broadcast.EncodeVec(vec.New(d))
			run := func(build func(id int, b broadcast.EIGBehavior) eigMachine) ([]eigMachine, int) {
				machines := make([]eigMachine, n)
				procs := make([]sched.SyncProcess, n)
				for i := range machines {
					var b broadcast.EIGBehavior
					if kind, ok := kinds[i]; ok {
						b = goldenBehavior(kind, i, n)
					}
					machines[i] = build(i, b)
					procs[i] = machines[i]
				}
				eng := sched.NewSyncEngine(procs)
				eng.Faults = faults
				rounds, err := eng.Run()
				if err != nil {
					t.Fatalf("n=%d seed %d: %v", n, seed, err)
				}
				return machines, rounds
			}
			got, gotRounds := run(func(id int, b broadcast.EIGBehavior) eigMachine {
				return broadcast.NewEIGNode(n, f, id, inputs[id], b, def)
			})
			want, wantRounds := run(func(id int, b broadcast.EIGBehavior) eigMachine {
				return broadcast.NewRefEIGNode(n, f, id, inputs[id], b, def)
			})
			label := fmt.Sprintf("n=%d f=%d seed %d behaviours %v dup %v", n, f, seed, kinds, faults != nil)
			if gotRounds != wantRounds {
				t.Fatalf("%s: %d rounds, referee %d", label, gotRounds, wantRounds)
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Drops() != w.Drops() || g.TreeNodes() != w.TreeNodes() {
					t.Fatalf("%s: process %d drops %d tree nodes %d, referee %d and %d", label, i, g.Drops(), g.TreeNodes(), w.Drops(), w.TreeNodes())
				}
				gd, wd := g.Decided(), w.Decided()
				if len(gd) != len(wd) {
					t.Fatalf("%s: process %d decided %d values, referee %d", label, i, len(gd), len(wd))
				}
				for c := range wd {
					if !bytes.Equal(gd[c], wd[c]) || (gd[c] == nil) != (wd[c] == nil) {
						t.Fatalf("%s: process %d commander %d: decided %x, referee %x", label, i, c, gd[c], wd[c])
					}
				}
			}
			scripts++
			byzantine += len(kinds)
		}
	}
	if scripts < 1200 || byzantine < scripts/2 {
		t.Fatalf("scripts too weak: %d scripts, %d Byzantine processes", scripts, byzantine)
	}
}
