package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// scripted sends a fixed list of Outgoing per round and records every
// inbox it is handed; it stops after len(script)-1 rounds.
type scripted struct {
	script  [][]Outgoing // script[0] is Start, script[r+1] is Step(r)
	inboxes [][]Message
}

func (s *scripted) Start() []Outgoing { return s.script[0] }

func (s *scripted) Step(round int, delivered []Message) []Outgoing {
	s.inboxes = append(s.inboxes, append([]Message(nil), delivered...))
	return s.script[round+1]
}

func (s *scripted) Done() bool { return len(s.inboxes) == len(s.script)-1 }

// referenceDelivery is the delivery model the counting-pass engine
// replaced, kept as the oracle: every send is routed into future[r] as it
// is made, a round's pending list is traced and dealt to the inboxes in
// that order, and each inbox is stable-sorted by (From, Tag).
func referenceDelivery(n int, scripts [][][]Outgoing, lf *LinkFaults) (inboxes [][][]Message, trace []Message, stats FaultStats) {
	future := make(map[int][]Message)
	seq := 0
	route := func(m Message, deliverRound int) {
		if lf == nil {
			future[deliverRound] = append(future[deliverRound], m)
			return
		}
		s := seq
		seq++
		copies := 1
		if lf.duplicates(m.From, m.To, s) {
			copies = 2
			stats.Duplicated++
		}
		for c := 0; c < copies; c++ {
			rid := s
			if c == 1 {
				rid = -s - 1
			}
			if lf.drops(m.From, m.To, rid, 0) {
				stats.Dropped++
				continue
			}
			at := deliverRound
			if d := lf.delay(m.From, m.To, rid); d > 0 {
				stats.Delayed++
				at += d
			}
			if lf.blockedAt(m.From, m.To, at) {
				t, ok := lf.clearFrom(m.From, m.To, at)
				if !ok {
					stats.Lost++
					continue
				}
				at = t
				stats.PartitionHeals++
			}
			future[at] = append(future[at], m)
		}
	}
	expand := func(from int, outs []Outgoing, round int) {
		for _, o := range outs {
			if o.To != Broadcast {
				route(Message{From: from, To: o.To, Tag: o.Tag, Data: o.Data, SentRound: round}, round+1)
				continue
			}
			for to := 0; to < n; to++ {
				if to != from {
					route(Message{From: from, To: to, Tag: o.Tag, Data: o.Data, SentRound: round}, round+1)
				}
			}
		}
	}
	for id := range scripts {
		expand(id, scripts[id][0], -1)
	}
	inboxes = make([][][]Message, n)
	for round := 0; round < len(scripts[0])-1; round++ {
		inbox := make([][]Message, n)
		for _, m := range future[round] {
			trace = append(trace, m)
			inbox[m.To] = append(inbox[m.To], m)
		}
		delete(future, round)
		for to := range inbox {
			in := inbox[to]
			sort.SliceStable(in, func(i, j int) bool {
				if in[i].From != in[j].From {
					return in[i].From < in[j].From
				}
				return in[i].Tag < in[j].Tag
			})
			inboxes[to] = append(inboxes[to], append([]Message(nil), in...))
		}
		for id := range scripts {
			expand(id, scripts[id][round+1], round)
		}
	}
	return inboxes, trace, stats
}

func TestSyncEngineDeliveryMatchesReference(t *testing.T) {
	// Multi-tag, out-of-order, unicast-and-broadcast sends under every
	// kind of link fault: each process's inbox in every round, the TraceFn
	// order, Messages and the fault counts must be the reference model's.
	policies := map[string]*LinkFaults{
		"none":      nil,
		"zero":      {Seed: 1},
		"dup":       {Seed: 2, LinkProfile: LinkProfile{DupProb: 0.4}},
		"dup-all":   {Seed: 3, LinkProfile: LinkProfile{DupProb: 1}},
		"drop":      {Seed: 4, LinkProfile: LinkProfile{DropProb: 0.3, DupProb: 0.3}},
		"delay":     {Seed: 5, LinkProfile: LinkProfile{DupProb: 0.3, DelayMin: 0, DelayMax: 2}},
		"partition": {Seed: 6, LinkProfile: LinkProfile{DupProb: 0.2}, Partitions: []Partition{{Start: 1, End: 3, Group: []int{0, 2}}, {Start: 2, End: -1, Group: []int{4}}}},
	}
	tags := []string{"c", "a", "b", ""}
	for name, lf := range policies {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n, rounds := 2+rng.Intn(5), 2+rng.Intn(5)
			scripts := make([][][]Outgoing, n)
			procs := make([]SyncProcess, n)
			recs := make([]*scripted, n)
			for id := range scripts {
				scripts[id] = make([][]Outgoing, rounds+1)
				for r := range scripts[id] {
					for k := rng.Intn(6); k > 0; k-- {
						o := Outgoing{To: rng.Intn(n+1) - 1, Tag: tags[rng.Intn(len(tags))], Data: []byte{byte(id), byte(r), byte(k)}}
						scripts[id][r] = append(scripts[id][r], o) // To may be Broadcast, or the sender itself
					}
				}
				recs[id] = &scripted{script: scripts[id]}
				procs[id] = recs[id]
			}
			e := NewSyncEngine(procs)
			e.Faults = lf
			var trace []Message
			e.TraceFn = func(m Message) { trace = append(trace, m) }
			// Drops, delays and partitions end in ErrDeliveryViolated, after
			// a run that still delivered deterministically.
			if _, err := e.Run(); err != nil && !errors.Is(err, ErrDeliveryViolated) {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			wantInboxes, wantTrace, wantStats := referenceDelivery(n, scripts, lf)
			label := fmt.Sprintf("%s seed %d (n=%d, %d rounds)", name, seed, n, rounds)
			for id, rec := range recs {
				if !reflect.DeepEqual(rec.inboxes, wantInboxes[id]) {
					t.Fatalf("%s: process %d inboxes\n got %v\nwant %v", label, id, rec.inboxes, wantInboxes[id])
				}
			}
			if !reflect.DeepEqual(trace, wantTrace) {
				t.Fatalf("%s: TraceFn order differs from the reference", label)
			}
			if e.Messages != len(wantTrace) || e.FaultStats != wantStats {
				t.Fatalf("%s: Messages %d stats %+v, want %d %+v", label, e.Messages, e.FaultStats, len(wantTrace), wantStats)
			}
		}
	}
}

// greedy appends to the inbox it is handed, as a careless process might.
type greedy struct{ scripted }

func (g *greedy) Step(round int, delivered []Message) []Outgoing {
	outs := g.scripted.Step(round, delivered)
	_ = append(delivered, Message{From: 99, Tag: "clobber"}, Message{From: 99, Tag: "clobber"})
	return outs
}

func TestSyncEngineInboxesAreCapLimited(t *testing.T) {
	// All inboxes of a round share one buffer; a process appending to its
	// own must not write into the next process's.
	const n = 4
	hello := [][]Outgoing{{{To: Broadcast, Tag: "hello"}}, nil, nil}
	procs := make([]SyncProcess, n)
	recs := make([]*scripted, n)
	for id := range procs {
		g := &greedy{scripted{script: hello}}
		procs[id], recs[id] = g, &g.scripted
	}
	e := NewSyncEngine(procs)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id, rec := range recs {
		if len(rec.inboxes[0]) != n-1 {
			t.Fatalf("process %d received %d messages, want %d", id, len(rec.inboxes[0]), n-1)
		}
		for _, m := range rec.inboxes[0] {
			if m.Tag != "hello" || m.To != id {
				t.Fatalf("process %d was handed a clobbered inbox: %+v", id, rec.inboxes[0])
			}
		}
	}
}

func TestSyncEngineTerminationErrorsUnchanged(t *testing.T) {
	// Once injected faults broke delivery, three rounds with nothing sent
	// and nothing in flight end a run whose processes wait for what was
	// lost.
	lost := &LinkFaults{Seed: 1, LinkProfile: LinkProfile{DropProb: 1}}
	e := NewSyncEngine([]SyncProcess{&scripted{script: [][]Outgoing{{{To: 1, Tag: "x"}}, nil, nil, nil, nil}}, neverDone{}})
	e.Faults = lost
	rounds, err := e.Run()
	if err == nil || !strings.HasPrefix(err.Error(), "sched: quiescent with 2 processes not done; ") || !errors.Is(err, ErrDeliveryViolated) || rounds != 3 {
		t.Errorf("quiescent run: rounds %d err %v", rounds, err)
	}
	// Without faults silence is no deadlock (Dolev-Strong is silent
	// between relaying and deciding): only the round limit ends it.
	e = NewSyncEngine([]SyncProcess{neverDone{}, neverDone{}})
	e.MaxRounds = 5
	rounds, err = e.Run()
	if err == nil || err.Error() != "sched: round limit 5 exceeded" || rounds != 5 {
		t.Errorf("silent run: rounds %d err %v", rounds, err)
	}
	// A process that keeps sending never goes quiescent: the round limit
	// ends it, with every round's message delivered and counted.
	chatter := make([][]Outgoing, 12)
	for r := range chatter {
		chatter[r] = []Outgoing{{To: 1, Tag: "x"}}
	}
	e = NewSyncEngine([]SyncProcess{&scripted{script: chatter}, neverDone{}})
	e.MaxRounds = 5
	rounds, err = e.Run()
	if err == nil || err.Error() != "sched: round limit 5 exceeded" || rounds != 5 || e.Messages != 5 || e.RoundsRun != 5 {
		t.Errorf("round-limited run: rounds %d messages %d err %v", rounds, e.Messages, err)
	}
}

func TestSortInbox(t *testing.T) {
	m := func(from int, tag string, id byte) Message { return Message{From: from, Tag: tag, Data: []byte{id}} }
	in := []Message{m(2, "b", 0), m(0, "z", 1), m(2, "a", 2), m(2, "b", 3), m(0, "z", 4), m(1, "", 5)}
	SortInbox(in)
	want := []Message{m(0, "z", 1), m(0, "z", 4), m(1, "", 5), m(2, "a", 2), m(2, "b", 0), m(2, "b", 3)}
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("SortInbox = %v, want %v", in, want)
	}
	SortInbox(nil)
}

// An unsorted inbox, the case of a round that carries several tags from
// one sender, is sorted in place without allocating.
func TestSortInboxAllocatesNothing(t *testing.T) {
	tags := []string{"rbc", "aba"}
	inbox := make([]Message, 0, 64)
	for i := 0; i < cap(inbox); i++ {
		inbox = append(inbox, Message{From: i % 7, Tag: tags[i/7%2], Data: []byte{byte(i)}})
	}
	work := make([]Message, len(inbox))
	allocs := testing.AllocsPerRun(20, func() {
		copy(work, inbox)
		SortInbox(work)
	})
	if allocs != 0 {
		t.Fatalf("SortInbox of an unsorted inbox made %.0f allocations", allocs)
	}
	for i := 1; i < len(work); i++ {
		if a, b := work[i-1], work[i]; a.From > b.From || (a.From == b.From && (a.Tag > b.Tag || (a.Tag == b.Tag && a.Data[0] > b.Data[0]))) {
			t.Fatalf("inbox out of order at %d: %v before %v", i, a, b)
		}
	}
}

// fanout broadcasts `width` messages a round for `rounds` rounds.
type fanout struct {
	outs   []Outgoing
	rounds int
	seen   int
}

func (f *fanout) Start() []Outgoing { return f.outs }

func (f *fanout) Step(round int, delivered []Message) []Outgoing {
	f.seen += len(delivered)
	if f.rounds--; f.rounds == 0 {
		return nil
	}
	return f.outs
}

func (f *fanout) Done() bool { return f.rounds == 0 }

// runFanout runs n fanout processes, each broadcasting width small
// messages a round for the given number of rounds.
func runFanout(tb testing.TB, n, width, rounds int) {
	outs := make([]Outgoing, width)
	for i := range outs {
		outs[i] = Outgoing{To: Broadcast, Tag: "m", Data: []byte{byte(i)}}
	}
	procs := make([]SyncProcess, n)
	for id := range procs {
		procs[id] = &fanout{outs: outs, rounds: rounds}
	}
	e := NewSyncEngine(procs)
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	if e.Messages != n*(n-1)*width*rounds {
		tb.Fatalf("%d messages delivered", e.Messages)
	}
}

func BenchmarkSyncEngineFanout(b *testing.B) {
	for _, c := range []struct {
		name             string
		n, width, rounds int
	}{
		// Wide rounds: 10 processes each broadcasting 500 small messages,
		// the shape EIG's relay rounds had when every tree node was a
		// message of its own.
		{"wide", 10, 500, 4},
		// The acs_protocol epoch: 7 processes, 13 rounds of about three
		// broadcasts each (126 deliveries a round).
		{"acs", 7, 3, 13},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runFanout(b, c.n, c.width, c.rounds)
			}
		})
	}
}

func TestSyncEngineSteadyStateAllocs(t *testing.T) {
	// Inboxes are reused from round to round, so a run's allocations do
	// not grow with its length: ten times the rounds, the same count.
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { runFanout(t, 7, 3, rounds) })
	}
	short, long := allocs(4), allocs(40)
	if long > short+4 {
		t.Fatalf("%.0f allocations over 40 rounds, %.0f over 4", long, short)
	}
}

// sizer records the capacity of every inbox it is handed.
type sizer struct {
	scripted
	caps []int
}

func (s *sizer) Step(round int, delivered []Message) []Outgoing {
	s.caps = append(s.caps, cap(delivered))
	return s.scripted.Step(round, delivered)
}

// TestSyncEngineInboxesSizedExactly: an inbox grows only in a round that
// delivers more than it ever held, and then to exactly that count, under
// unicasts, broadcasts, duplication and delays.
func TestSyncEngineInboxesSizedExactly(t *testing.T) {
	policies := []*LinkFaults{nil, {Seed: 2, LinkProfile: LinkProfile{DupProb: 0.4}},
		{Seed: 5, LinkProfile: LinkProfile{DupProb: 0.3, DelayMin: 0, DelayMax: 2}}}
	for pi, lf := range policies {
		for seed := int64(0); seed < 16; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n, rounds := 2+rng.Intn(5), 2+rng.Intn(6)
			procs := make([]SyncProcess, n)
			recs := make([]*sizer, n)
			for id := range procs {
				script := make([][]Outgoing, rounds+1)
				for r := range script {
					for k := rng.Intn(3 * (r + 1)); k > 0; k-- {
						script[r] = append(script[r], Outgoing{To: rng.Intn(n+1) - 1, Tag: "t"})
					}
				}
				recs[id] = &sizer{scripted: scripted{script: script}}
				procs[id] = recs[id]
			}
			e := NewSyncEngine(procs)
			e.Faults = lf
			if _, err := e.Run(); err != nil && !errors.Is(err, ErrDeliveryViolated) {
				t.Fatalf("policy %d seed %d: %v", pi, seed, err)
			}
			for id, rec := range recs {
				most := 0
				for r, in := range rec.inboxes {
					most = max(most, len(in))
					if rec.caps[r] != most {
						t.Fatalf("policy %d seed %d: process %d round %d got an inbox of cap %d, most delivered so far %d",
							pi, seed, id, r, rec.caps[r], most)
					}
				}
			}
		}
	}
}
