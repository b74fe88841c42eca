package acs

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

	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// Wire-level golden: testdata/acs_transcripts.json was written at the
// commit before the flat-tally rewrite of Bracha and ABA by running
// transcriptSpecs through runTranscript and dumping the results. Every
// delivered message (From, To, Tag, Data) in TraceFn order is hashed, so
// a change to any wire byte, to the order of any returned Outgoing or to
// any decision shows up here. The long n=7 streams were appended at the
// commit before epoch states were recycled: each node reuses a sealed
// epoch's state dozens of times there, ABA rounds past the inline two
// included. When votes began to travel as one body per link and round,
// only the trace_sha256 and messages columns were re-recorded; the
// fingerprint and rounds columns are the per-message node's. When the
// coin became 1 then 0 in an instance's first two rounds and decided
// instances began to send TERM, the trace_sha256, messages and rounds
// columns were re-recorded and every fingerprint held. When a node began
// to open epoch e+1 as soon as epoch e cast its 0-votes, the same three
// columns of the 16 equivocate and mute rows were re-recorded; the honest
// rows and every fingerprint held, and TestACSTranscriptStreamsValid
// checks each stream against its proposals.

type transcriptSpec struct {
	Name     string
	N, F     int
	Behavior Behavior // scripted on node N-1 (Honest: nobody)
	DupProb  float64
	Epochs   int // stream length
}

type transcript struct {
	Name        string `json:"name"`
	Trace       string `json:"trace_sha256"`
	Fingerprint string `json:"fingerprint"`
	Messages    int    `json:"messages"`
	Rounds      int    `json:"rounds"`
}

const transcriptDim = 2

func transcriptSpecs() []transcriptSpec {
	var specs []transcriptSpec
	add := func(n, f, epochs int, suffix string) {
		for _, b := range []Behavior{Honest, Equivocate, Mute} {
			for _, dup := range []float64{0, 0.2} {
				specs = append(specs, transcriptSpec{
					Name: fmt.Sprintf("n%d_f%d_%s_dup%g%s", n, f,
						[]string{"honest", "equivocate", "mute"}[b], dup, suffix),
					N: n, F: f, Behavior: b, DupProb: dup, Epochs: epochs,
				})
			}
		}
	}
	for _, nf := range [][2]int{{4, 1}, {7, 2}, {10, 3}} {
		add(nf[0], nf[1], 5, "")
	}
	add(7, 2, 40, "_e40")
	return specs
}

func (s transcriptSpec) proposals() [][]vec.V {
	return genProposals(rand.New(rand.NewSource(int64(1000*s.N+s.F))), s.Epochs, s.N, transcriptDim)
}

// faults is the spec's duplication policy (nil: none).
func (s transcriptSpec) faults() *sched.LinkFaults {
	if s.DupProb == 0 {
		return nil
	}
	return &sched.LinkFaults{Seed: 42, LinkProfile: sched.LinkProfile{DupProb: s.DupProb}}
}

func (s transcriptSpec) cluster(t *testing.T) []*Node {
	props := s.proposals()
	var behaviors map[int]Behavior
	if s.Behavior != Honest {
		behaviors = map[int]Behavior{s.N - 1: s.Behavior}
	}
	return buildCluster(t, s.N, s.F, transcriptDim, props, behaviors)
}

func runTranscript(t *testing.T, s transcriptSpec) transcript {
	nodes := s.cluster(t)
	procs := make([]sched.SyncProcess, len(nodes))
	for i, n := range nodes {
		procs[i] = n
	}
	eng := sched.NewSyncEngine(procs)
	eng.Faults = s.faults()
	h := sha256.New()
	var hdr [12]byte
	eng.TraceFn = func(m sched.Message) {
		binary.BigEndian.PutUint32(hdr[0:], uint32(m.From))
		binary.BigEndian.PutUint32(hdr[4:], uint32(m.To))
		binary.BigEndian.PutUint32(hdr[8:], uint32(len(m.Data)))
		h.Write(hdr[:])
		h.Write([]byte(m.Tag))
		h.Write(m.Data)
	}
	rounds, err := eng.Run()
	if err != nil {
		t.Fatalf("%s: engine: %v", s.Name, err)
	}
	fp := Fingerprint(nodes[0].Decisions())
	for i, n := range nodes {
		if i == s.N-1 && s.Behavior != Honest {
			continue
		}
		if Fingerprint(n.Decisions()) != fp {
			t.Fatalf("%s: node %d diverged from node 0", s.Name, i)
		}
	}
	return transcript{
		Name: s.Name, Trace: hex.EncodeToString(h.Sum(nil)), Fingerprint: fp,
		Messages: eng.Messages, Rounds: rounds,
	}
}

func goldenTranscripts(t *testing.T) []transcript {
	raw, err := os.ReadFile("testdata/acs_transcripts.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []transcript
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(transcriptSpecs()) {
		t.Fatalf("golden holds %d transcripts, specs %d", len(want), len(transcriptSpecs()))
	}
	return want
}

func TestACSTranscriptsMatchGolden(t *testing.T) {
	want := goldenTranscripts(t)
	for i, s := range transcriptSpecs() {
		if got := runTranscript(t, s); got != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", s.Name, got, want[i])
		}
	}
}

// Every golden stream is valid: each honest node seals every epoch in
// order, the subset has at least n-f slots and no faulty one, each
// subset value is its slot's proposal, and the output lies within the
// epoch's delta of the honest proposals' hull.
func TestACSTranscriptStreamsValid(t *testing.T) {
	for _, s := range transcriptSpecs() {
		nodes := s.cluster(t)
		runCluster(t, nodes, s.faults())
		props := s.proposals()
		for i, node := range nodes {
			if i == s.N-1 && s.Behavior != Honest {
				continue
			}
			stream := node.Decisions()
			if len(stream) != s.Epochs {
				t.Fatalf("%s: node %d sealed %d of %d epochs", s.Name, i, len(stream), s.Epochs)
			}
			for e, dec := range stream {
				honest := vec.NewSet()
				for j, p := range props[e] {
					if j != s.N-1 || s.Behavior == Honest {
						honest.Append(p)
					}
				}
				if dec.Epoch != e || len(dec.Subset) < s.N-s.F {
					t.Fatalf("%s: node %d's decision %d is epoch %d with subset %v", s.Name, i, e, dec.Epoch, dec.Subset)
				}
				for k, slot := range dec.Subset {
					if (slot == s.N-1 && s.Behavior != Honest) || !dec.Values[k].Equal(props[e][slot]) {
						t.Fatalf("%s: epoch %d took slot %d's value %v", s.Name, e, slot, dec.Values[k])
					}
				}
				if dist, _ := geom.DistP(dec.Output, honest, 2); dist > dec.Delta+1e-6 {
					t.Fatalf("%s: epoch %d output is %g from the honest hull, delta %g", s.Name, e, dist, dec.Delta)
				}
			}
		}
	}
}

// The n <= 7 fault-free specs also run as a transport.RunSync mesh
// cluster and must seal the golden's fingerprint.
func TestACSTranscriptsOnMesh(t *testing.T) {
	want := goldenTranscripts(t)
	for i, s := range transcriptSpecs() {
		if s.N > 7 || s.Behavior != Honest || s.DupProb != 0 {
			continue
		}
		nodes := s.cluster(t)
		mesh := transport.NewMesh(s.N)
		ctx, cancel := context.WithCancel(context.Background())
		errs := make([]error, s.N)
		var wg sync.WaitGroup
		for j := range nodes {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				if _, errs[j] = transport.RunSync(ctx, mesh.Node(j), nodes[j], 0, nil); errs[j] != nil {
					cancel() // unblock peers stuck at the round barrier
				}
			}(j)
		}
		wg.Wait()
		cancel()
		for j := range nodes {
			mesh.Node(j).Close() //nolint:errcheck // mesh close cannot fail
			if errs[j] != nil {
				t.Fatalf("%s: mesh node %d: %v", s.Name, j, errs[j])
			}
			if got := Fingerprint(nodes[j].Decisions()); got != want[i].Fingerprint {
				t.Errorf("%s: mesh node %d sealed %s, golden %s", s.Name, j, got, want[i].Fingerprint)
			}
		}
	}
}
