package broadcast_test

// Golden transcript parity for the all-to-all EIG broadcast. The table
// in testdata/eig_transcripts.json was written by the map-keyed EIG
// tree and the append-and-sort SyncEngine this code replaced (a
// throwaway generator run on that commit, calling eigTranscript below):
// per spec the sha256 over every delivered message in TraceFn order,
// the decided values and the run's counters. The flat tree and the
// counting-pass delivery must reproduce every entry, and a mesh cluster
// of transport.RunSync nodes must decide the same values.

import (
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
		for _, b := range []string{"honest", "silent", "garbage", "randomliar", "relayonlyliar", "equivocator", "perrecipient"} {
			for _, dup := range []bool{false, true} {
				specs = append(specs, eigGoldenSpec{n: shape[0], f: shape[1], behavior: b, dup: dup})
			}
		}
	}
	return specs
}

// byzantine returns fresh behaviours (a RandomLiar carries RNG state)
// for the spec's Byzantine processes: id 1, and id n-1 too when f >= 2.
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
		switch s.behavior {
		case "silent":
			byz[id] = adversary.Silent()
		case "garbage":
			byz[id] = adversary.Garbage()
		case "randomliar":
			byz[id] = adversary.RandomLiar(int64(100+id), eigGoldenDim, 10)
		case "relayonlyliar":
			byz[id] = adversary.RelayOnlyLiar(id, vec.Of(7, -7, 7))
		case "equivocator":
			byz[id] = adversary.Equivocator(vec.Of(9, 9, 9), vec.Of(-9, -9, -9))
		case "perrecipient":
			per := make(map[int]vec.V)
			for to := 0; to < s.n; to += 2 {
				per[to] = vec.Of(float64(to), float64(id), -1)
			}
			byz[id] = adversary.PerRecipient(per)
		default:
			panic("unknown behaviour " + s.behavior)
		}
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
	res, err := broadcast.RunAllToAllEIG(s.n, s.f, s.inputs(), s.byzantine(), def, s.faults(), trace)
	if err != nil {
		return eigTranscriptRecord{}, err
	}
	return eigTranscriptRecord{
		Name:      s.name(),
		Trace:     hex.EncodeToString(h.Sum(nil)),
		Decided:   decidedHash(res.Decided),
		Messages:  res.Messages,
		Rounds:    res.Rounds,
		Drops:     res.Drops,
		TreeNodes: res.TreeNodes,
	}, nil
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
