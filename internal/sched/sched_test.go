package sched

import (
	"math/rand"
	"testing"
)

// flooder broadcasts one message in round 0 and records what it receives
// for `rounds` rounds, then stops.
type flooder struct {
	id       int
	rounds   int
	round    int
	received []Message
	done     bool
}

func (f *flooder) Start() []Outgoing {
	return []Outgoing{{To: Broadcast, Tag: "hello", Data: []byte{byte(f.id)}}}
}

func (f *flooder) Step(round int, delivered []Message) []Outgoing {
	f.received = append(f.received, delivered...)
	f.round++
	if f.round >= f.rounds {
		f.done = true
	}
	return nil
}

func (f *flooder) Done() bool { return f.done }

func TestSyncEngineBroadcastDelivery(t *testing.T) {
	n := 5
	procs := make([]SyncProcess, n)
	fl := make([]*flooder, n)
	for i := range procs {
		fl[i] = &flooder{id: i, rounds: 2}
		procs[i] = fl[i]
	}
	e := NewSyncEngine(procs)
	rounds, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 2 {
		t.Errorf("rounds = %d", rounds)
	}
	for i, f := range fl {
		if len(f.received) != n-1 {
			t.Fatalf("process %d received %d messages, want %d", i, len(f.received), n-1)
		}
		// Deterministic order by sender.
		prev := -1
		for _, m := range f.received {
			if m.From <= prev {
				t.Fatalf("delivery order not sorted by sender: %v", f.received)
			}
			if m.From == i {
				t.Fatal("self-delivery on broadcast")
			}
			prev = m.From
		}
	}
	if e.Messages != n*(n-1) {
		t.Errorf("message count = %d", e.Messages)
	}
}

// pingpong: process 0 sends "ping" to 1; 1 replies "pong"; both stop.
type pingpong struct {
	id   int
	got  int
	done bool
}

func (p *pingpong) Start() []Outgoing {
	if p.id == 0 {
		return []Outgoing{{To: 1, Tag: "ping"}}
	}
	return nil
}

func (p *pingpong) Step(round int, delivered []Message) []Outgoing {
	var out []Outgoing
	for _, m := range delivered {
		p.got++
		if m.Tag == "ping" {
			out = append(out, Outgoing{To: m.From, Tag: "pong"})
		}
		p.done = true
	}
	return out
}

func (p *pingpong) Done() bool { return p.done }

func TestSyncEnginePointToPoint(t *testing.T) {
	a, b := &pingpong{id: 0}, &pingpong{id: 1}
	e := NewSyncEngine([]SyncProcess{a, b})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.got != 1 || b.got != 1 {
		t.Errorf("got a=%d b=%d", a.got, b.got)
	}
}

type neverDone struct{}

func (neverDone) Start() []Outgoing              { return nil }
func (neverDone) Step(int, []Message) []Outgoing { return nil }
func (neverDone) Done() bool                     { return false }

func TestSyncEngineDeadlockDetection(t *testing.T) {
	e := NewSyncEngine([]SyncProcess{neverDone{}})
	e.maxRounds = 100
	if _, err := e.Run(); err == nil {
		t.Fatal("deadlocked engine returned no error")
	}
}

func TestSyncEngineInvalidDestination(t *testing.T) {
	bad := &badSender{}
	e := NewSyncEngine([]SyncProcess{bad})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination did not panic")
		}
	}()
	e.Run()
}

type badSender struct{ done bool }

func (b *badSender) Start() []Outgoing              { return []Outgoing{{To: 42}} }
func (b *badSender) Step(int, []Message) []Outgoing { b.done = true; return nil }
func (b *badSender) Done() bool                     { return b.done }

// echoProc replies once to each received "ping" with "pong", counts
// pongs, and is done after the expected count.
type echoProc struct {
	id     int
	n      int
	pongs  int
	pings  int
	done   bool
	origin bool
}

func (p *echoProc) Start() []Outgoing {
	if p.origin {
		return []Outgoing{{To: Broadcast, Tag: "ping"}}
	}
	return nil
}

func (p *echoProc) Step(_ int, delivered []Message) []Outgoing {
	var outs []Outgoing
	for _, m := range delivered {
		switch m.Tag {
		case "ping":
			p.pings++
			outs = append(outs, Outgoing{To: m.From, Tag: "pong"})
		case "pong":
			p.pongs++
			if p.pongs == p.n-1 {
				p.done = true
			}
		}
	}
	return outs
}

func (p *echoProc) Done() bool { return p.done }

func TestAsyncEngineSchedules(t *testing.T) {
	for name, sch := range map[string]Schedule{
		"fifo":   FIFOSchedule{},
		"lifo":   LIFOSchedule{},
		"random": &RandomSchedule{Rng: rand.New(rand.NewSource(1))},
		"delay":  &DelayTargetSchedule{Slow: map[int]bool{2: true}},
	} {
		n := 4
		procs := make([]SyncProcess, n)
		var origin *echoProc
		for i := range procs {
			ep := &echoProc{id: i, n: n, origin: i == 0}
			if i == 0 {
				origin = ep
			}
			procs[i] = ep
		}
		e := NewAsyncEngine(procs, sch)
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if origin.pongs != n-1 {
			t.Errorf("%s: origin pongs = %d, want %d", name, origin.pongs, n-1)
		}
	}
}

func TestAsyncEngineDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) int {
		n := 5
		procs := make([]SyncProcess, n)
		for i := range procs {
			procs[i] = &echoProc{id: i, n: n, origin: i == 0}
		}
		e := NewAsyncEngine(procs, &RandomSchedule{Rng: rand.New(rand.NewSource(seed))})
		steps, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	if run(7) != run(7) {
		t.Error("same seed gave different step counts")
	}
}

func TestAsyncEngineStepLimit(t *testing.T) {
	// Two processes ping-pong forever.
	procs := []SyncProcess{&forever{}, &forever{}}
	e := NewAsyncEngine(procs, FIFOSchedule{})
	e.maxSteps = 50
	if _, err := e.Run(); err == nil {
		t.Fatal("no error at step limit")
	}
}

type forever struct{}

func (forever) Start() []Outgoing { return []Outgoing{{To: Broadcast, Tag: "x"}} }
func (forever) Step(_ int, delivered []Message) []Outgoing {
	return []Outgoing{{To: delivered[0].From, Tag: "x"}}
}
func (forever) Done() bool { return false }

func TestLIFOAndDelaySchedulesPick(t *testing.T) {
	q := []Message{{From: 0}, {From: 1}, {From: 2}}
	if (LIFOSchedule{}).Pick(q) != 2 {
		t.Error("LIFO should pick last")
	}
	if (FIFOSchedule{}).Pick(q) != 0 {
		t.Error("FIFO should pick first")
	}
	d := &DelayTargetSchedule{Slow: map[int]bool{0: true}}
	if d.Pick(q) != 1 {
		t.Error("delay should skip slow sender")
	}
	allSlow := &DelayTargetSchedule{Slow: map[int]bool{0: true, 1: true, 2: true}}
	if allSlow.Pick(q) != 0 {
		t.Error("all-slow should fall back to first")
	}
}

// gossiper answers every delivered message with zero to two sends — to a
// peer or a broadcast, chosen by a hash of its own count — until its
// budget is spent, so the queue grows, shrinks and mixes senders.
type gossiper struct {
	id, n, budget, seen int
}

func (g *gossiper) Start() []Outgoing {
	return []Outgoing{{To: Broadcast, Tag: "g", Data: []byte{byte(g.id)}}}
}

func (g *gossiper) Step(_ int, delivered []Message) []Outgoing {
	var outs []Outgoing
	for range delivered {
		g.seen++
		h := uint64(g.id*7919+g.seen) * 0x9e3779b97f4a7c15
		for k := int(h>>60) % 3; k > 0 && g.budget > 0; k-- {
			g.budget--
			to := Broadcast
			if h>>40&1 == 0 {
				to = int(h>>20) % g.n
				if to == g.id {
					to = (to + 1) % g.n
				}
			}
			outs = append(outs, Outgoing{To: to, Tag: "g", Data: []byte{byte(g.id), byte(g.seen)}})
		}
	}
	return outs
}

func (g *gossiper) Done() bool { return false }

// refAsyncOrder is the delivery order of the queue this engine kept
// before it took copies from either end: one slice, the picked copy cut
// out by shifting everything behind it, Pick handed the whole queue.
func refAsyncOrder(procs []SyncProcess, sch Schedule) []Message {
	n := len(procs)
	var queue, order []Message
	expand := func(from, step int, outs []Outgoing) {
		for _, o := range outs {
			for to := 0; to < n; to++ {
				if o.To == to || o.To == Broadcast && to != from {
					queue = append(queue, Message{From: from, To: to, Tag: o.Tag, Data: o.Data, SentRound: step})
				}
			}
		}
	}
	for id, p := range procs {
		expand(id, 0, p.Start())
	}
	for step := 0; len(queue) > 0; step++ {
		i := sch.Pick(queue)
		m := queue[i]
		queue = append(queue[:i], queue[i+1:]...)
		order = append(order, m)
		expand(m.To, step, procs[m.To].Step(step, []Message{m}))
	}
	return order
}

// TestAsyncEngineMatchesReferenceOrder holds the engine's delivery order
// (TraceFn, message for message) to the shift-everything queue under
// every schedule, the starved processes' own queue included.
func TestAsyncEngineMatchesReferenceOrder(t *testing.T) {
	schedules := map[string]func() Schedule{
		"fifo":        func() Schedule { return FIFOSchedule{} },
		"lifo":        func() Schedule { return LIFOSchedule{} },
		"random":      func() Schedule { return &RandomSchedule{Rng: rand.New(rand.NewSource(3))} },
		"starve0":     func() Schedule { return &DelayTargetSchedule{Slow: map[int]bool{0: true}} },
		"starve0,1,2": func() Schedule { return &DelayTargetSchedule{Slow: map[int]bool{0: true, 1: true, 2: true}} },
		"starveall": func() Schedule {
			return &DelayTargetSchedule{Slow: map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}}
		},
	}
	for name, sch := range schedules {
		for _, budget := range []int{0, 3, 40, 400} {
			build := func() []SyncProcess {
				procs := make([]SyncProcess, 5)
				for i := range procs {
					procs[i] = &gossiper{id: i, n: len(procs), budget: budget}
				}
				return procs
			}
			want := refAsyncOrder(build(), sch())
			var got []Message
			e := NewAsyncEngine(build(), sch())
			e.TraceFn = func(m Message) { got = append(got, m) }
			if _, err := e.Run(); err != nil {
				t.Fatalf("%s budget %d: %v", name, budget, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s budget %d: %d deliveries, reference %d", name, budget, len(got), len(want))
			}
			for i := range got {
				if g, w := got[i], want[i]; g.From != w.From || g.To != w.To || g.SentRound != w.SentRound || string(g.Data) != string(w.Data) {
					t.Fatalf("%s budget %d: delivery %d is %+v, reference %+v", name, budget, i, g, w)
				}
			}
		}
	}
}
