package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
)

// refBracha is the map-based reliable broadcast this package shipped
// before the flat tallies: one map[int]string per phase and instance,
// instances keyed by a formatted "sender|id" string, the modal value
// recomputed through a fresh map on every vote, and this process's own
// ECHO/READY looped back through Handle as encoded messages. It is kept
// as the referee of TestBrachaMatchesReference.

type refBrachaInst struct {
	echoed    bool
	readied   bool
	delivered bool
	echoes    map[int]string // per echoing process: value
	readies   map[int]string
	haveInit  bool
}

type refBracha struct {
	N, F, Self int
	insts      map[string]*refBrachaInst
	deliveries []Delivery
}

func newRefBracha(n, f, self int) *refBracha {
	return &refBracha{N: n, F: f, Self: self, insts: make(map[string]*refBrachaInst)}
}

func (b *refBracha) inst(sender int, id string) *refBrachaInst {
	k := fmt.Sprintf("%d|%s", sender, id)
	in := b.insts[k]
	if in == nil {
		in = &refBrachaInst{echoes: make(map[int]string), readies: make(map[int]string)}
		b.insts[k] = in
	}
	return in
}

func refEncodeRBC(phase byte, sender int, id string, value []byte) []byte {
	out := []byte{phase, byte(sender >> 8), byte(sender)}
	out = AppendField(out, []byte(id))
	return AppendField(out, value)
}

func (b *refBracha) Broadcast(id string, value []byte) []sched.Outgoing {
	init := refEncodeRBC(rbcInit, b.Self, id, value)
	outs := []sched.Outgoing{{To: sched.Broadcast, Tag: BrachaTag, Data: init}}
	return append(outs, b.Handle(sched.Message{From: b.Self, To: b.Self, Tag: BrachaTag, Data: init})...)
}

func (b *refBracha) Handle(m sched.Message) []sched.Outgoing {
	phase, sender, idB, value, _, err := decodeRBC(m.Data)
	if err != nil {
		return nil
	}
	id := string(idB)
	in := b.inst(sender, id)
	var outs []sched.Outgoing
	feedSelf := func(data []byte) {
		outs = append(outs, b.Handle(sched.Message{From: b.Self, To: b.Self, Tag: BrachaTag, Data: data})...)
	}
	switch phase {
	case rbcInit:
		// Only the claimed sender may originate its INIT.
		if m.From != sender {
			return nil
		}
		if in.haveInit {
			return nil // duplicate/equivocating INIT ignored (first wins)
		}
		in.haveInit = true
		if !in.echoed {
			in.echoed = true
			echo := refEncodeRBC(rbcEcho, sender, id, value)
			outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: echo})
			feedSelf(echo)
		}
	case rbcEcho:
		if _, dup := in.echoes[m.From]; dup {
			return nil
		}
		in.echoes[m.From] = string(value)
		outs = append(outs, b.maybeReady(in, sender, id, refFeedSelfFn(&outs, b))...)
	case rbcReady:
		if _, dup := in.readies[m.From]; dup {
			return nil
		}
		in.readies[m.From] = string(value)
		outs = append(outs, b.maybeReady(in, sender, id, refFeedSelfFn(&outs, b))...)
		// Deliver on 2f+1 matching READYs.
		if !in.delivered {
			if v, n := refModalValue(in.readies); n >= deliverQuorum(b.F) {
				in.delivered = true
				b.deliveries = append(b.deliveries, Delivery{Sender: sender, ID: id, Value: []byte(v)})
			}
		}
	}
	return outs
}

func refFeedSelfFn(outs *[]sched.Outgoing, b *refBracha) func([]byte) {
	return func(data []byte) {
		*outs = append(*outs, b.Handle(sched.Message{From: b.Self, To: b.Self, Tag: BrachaTag, Data: data})...)
	}
}

func (b *refBracha) maybeReady(in *refBrachaInst, sender int, id string, feedSelf func([]byte)) []sched.Outgoing {
	var outs []sched.Outgoing
	if !in.readied {
		// Echo threshold: > (n+f)/2 matching echoes.
		if v, n := refModalValue(in.echoes); echoQuorum(n, b.N, b.F) {
			in.readied = true
			ready := refEncodeRBC(rbcReady, sender, id, []byte(v))
			outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: ready})
			feedSelf(ready)
			return outs
		}
		// Ready amplification: f+1 matching readies.
		if v, n := refModalValue(in.readies); n >= amplifyQuorum(b.F) {
			in.readied = true
			ready := refEncodeRBC(rbcReady, sender, id, []byte(v))
			outs = append(outs, sched.Outgoing{To: sched.Broadcast, Tag: BrachaTag, Data: ready})
			feedSelf(ready)
		}
	}
	return outs
}

// refModalValue returns the most frequent value and its count, ties to
// the lexicographically smallest value.
func refModalValue(m map[int]string) (string, int) {
	counts := make(map[string]int)
	bestV, bestN := "", 0
	for _, v := range m {
		counts[v]++
		if counts[v] > bestN || (counts[v] == bestN && v < bestV) {
			bestV, bestN = v, counts[v]
		}
	}
	return bestV, bestN
}

func (b *refBracha) TakeDeliveries() []Delivery {
	d := b.deliveries
	b.deliveries = nil
	return d
}

func sameOuts(a, b []sched.Outgoing) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To || a[i].Tag != b[i].Tag || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func sameDeliveries(a, b []Delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sender != b[i].Sender || a[i].ID != b[i].ID || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestBrachaMatchesReference drives the flat-tally BrachaState and the
// map-based reference with the same seeded scripts — duplicates,
// arbitrary order, impersonated INITs, equivocating INIT/ECHO/READY
// values drawn from a pool small enough that exact count ties are the
// norm, READY amplification before any ECHO, own broadcasts, pruning
// one instance or a whole id —
// and requires the same sends (To, Tag, bytes, order) from every call
// and the same delivery sequence.
func TestBrachaMatchesReference(t *testing.T) {
	values := [][]byte{{}, []byte("a"), []byte("b"), []byte("ab"), EncodeVec([]float64{1, 2})}
	ids := []string{"e0", "e1", "rva-3"}
	scripts, sends, delivered := 0, 0, 0
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		for seed := int64(0); seed < 400; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(n)))
			self := rng.Intn(n)
			got, want := NewBrachaState(n, f, self), newRefBracha(n, f, self)
			// Few instances and few values, so votes pile up and tie.
			nInst, nVal := 1+rng.Intn(3), 1+rng.Intn(len(values))
			readyFirst := rng.Intn(4) == 0 // READYs only for the first third: amplification before any ECHO
			steps := 20*n + rng.Intn(20*n)
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("n=%d seed=%d step=%d", n, seed, step)
				sender, id := rng.Intn(nInst)%n, ids[rng.Intn(nInst)%len(ids)]
				value := values[rng.Intn(nVal)]
				switch k := rng.Intn(40); {
				case k == 0:
					if !sameOuts(got.Broadcast(id, value), want.Broadcast(id, value)) {
						t.Fatalf("%s: Broadcast sends differ", label)
					}
				case k == 1:
					if !sameDeliveries(got.TakeDeliveries(), want.TakeDeliveries()) {
						t.Fatalf("%s: deliveries differ", label)
					}
				case k == 2 && step > steps/2:
					got.PruneInstances(func(s int, i string) bool { return s == sender && i == id })
					delete(want.insts, fmt.Sprintf("%d|%s", sender, id))
				case k == 3 && step > steps/2:
					got.PruneInstances(func(_ int, i string) bool { return i == id })
					for s := 0; s < n; s++ {
						delete(want.insts, fmt.Sprintf("%d|%s", s, id))
					}
				default:
					phase := byte(rng.Intn(3))
					if readyFirst && step < steps/3 {
						phase = rbcReady
					}
					from := rng.Intn(n)
					if phase == rbcInit && rng.Intn(3) > 0 {
						from = sender // otherwise an impersonated INIT
					}
					m := sched.Message{From: from, To: self, Tag: BrachaTag, Data: refEncodeRBC(phase, sender, id, value)}
					g, w := got.Handle(m), want.Handle(m)
					if !sameOuts(g, w) {
						t.Fatalf("%s: Handle(phase %d from %d sender %d id %s value %q)\n got %v\nwant %v", label, phase, from, sender, id, value, g, w)
					}
					sends += len(g)
				}
			}
			g, w := got.TakeDeliveries(), want.TakeDeliveries()
			if !sameDeliveries(g, w) {
				t.Fatalf("n=%d seed=%d: final deliveries differ\n got %v\nwant %v", n, seed, g, w)
			}
			delivered += len(g)
			scripts++
		}
	}
	if scripts < 1000 || sends == 0 || delivered == 0 {
		t.Fatalf("scripts too weak: %d scripts, %d sends, %d deliveries", scripts, sends, delivered)
	}
}

// TestBrachaModalValueMatchesReference pins the modal-value rule on
// vote sets built to tie: highest count wins, ties go to the
// lexicographically smallest value.
func TestBrachaModalValueMatchesReference(t *testing.T) {
	values := []string{"", "a", "b", "ab", "ba", "\x00"}
	ties := 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)
		in := &brachaInst{voted: make([]byte, n)}
		ref := make(map[int]string)
		b := NewBrachaState(n, (n-1)/3, 0)
		in.readied, in.delivered = true, true // tally only
		for _, from := range rng.Perm(n)[:1+rng.Intn(n)] {
			v := values[rng.Intn(1+rng.Intn(len(values)))]
			ref[from] = v
			b.vote(in, from, rbcEcho, []byte(v))
		}
		wantV, wantN := refModalValue(ref)
		gotV, gotN := in.modal(rbcEcho)
		if string(gotV) != wantV || gotN != wantN {
			t.Fatalf("seed %d: modal of %v = (%q, %d), reference (%q, %d)", seed, ref, gotV, gotN, wantV, wantN)
		}
		top := 0
		for _, tl := range in.tallies {
			if tl.count[rbcEcho] == gotN {
				top++
			}
		}
		if top > 1 {
			ties++
		}
	}
	if ties < 100 {
		t.Fatalf("only %d of 2000 vote sets tied at the top; the tie-break is not exercised", ties)
	}
}
