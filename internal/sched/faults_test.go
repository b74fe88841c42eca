package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func newEchoNet(n int) ([]SyncProcess, *echoProc) {
	procs := make([]SyncProcess, n)
	var origin *echoProc
	for i := range procs {
		ep := &echoProc{id: i, n: n, origin: i == 0}
		if i == 0 {
			origin = ep
		}
		procs[i] = ep
	}
	return procs, origin
}

func TestLinkFaultsValidate(t *testing.T) {
	bad := []LinkFaults{
		{LinkProfile: LinkProfile{DropProb: -0.1}},
		{LinkProfile: LinkProfile{DropProb: 1.1}},
		{LinkProfile: LinkProfile{DupProb: 2}},
		{LinkProfile: LinkProfile{DelayMin: 3, DelayMax: 1}},
		{LinkProfile: LinkProfile{DelayMin: -1}},
		{Links: map[Link]LinkProfile{{0, 1}: {DropProb: 7}}},
		{Partitions: []Partition{{Start: -1}}},
		{Partitions: []Partition{{Start: 5, End: 5}}},
		{RetransmitTimeout: -1},
		{MaxAttempts: -2},
	}
	for i, lf := range bad {
		if err := lf.Validate(); err == nil {
			t.Errorf("case %d: invalid policy passed validation: %+v", i, lf)
		}
	}
	good := LinkFaults{
		LinkProfile: LinkProfile{DropProb: 0.5, DupProb: 0.2, DelayMin: 1, DelayMax: 3},
		Links:       map[Link]LinkProfile{{0, 1}: {DropProb: 1}},
		Partitions:  []Partition{{Start: 0, End: 10, Group: []int{0}}, {Start: 3, End: -1, Group: []int{2}}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestFaultRollsDeterministicAndOrderFree(t *testing.T) {
	lf := &LinkFaults{Seed: 42, LinkProfile: LinkProfile{DropProb: 0.5, DupProb: 0.5, DelayMax: 4}}
	lf2 := &LinkFaults{Seed: 42, LinkProfile: LinkProfile{DropProb: 0.5, DupProb: 0.5, DelayMax: 4}}
	for seq := 0; seq < 200; seq++ {
		if lf.drops(0, 1, seq, 0) != lf2.drops(0, 1, seq, 0) {
			t.Fatalf("drop roll for seq %d differs across identical policies", seq)
		}
		if lf.duplicates(1, 2, seq) != lf2.duplicates(1, 2, seq) {
			t.Fatalf("dup roll for seq %d differs", seq)
		}
		if lf.delay(2, 0, seq) != lf2.delay(2, 0, seq) {
			t.Fatalf("delay roll for seq %d differs", seq)
		}
	}
	// Rolls depend on the seed: a different seed must flip at least one
	// decision over 200 sequence numbers (probability ~2^-200 otherwise).
	other := &LinkFaults{Seed: 43, LinkProfile: lf.LinkProfile}
	same := true
	for seq := 0; seq < 200 && same; seq++ {
		same = lf.drops(0, 1, seq, 0) == other.drops(0, 1, seq, 0)
	}
	if same {
		t.Error("drop rolls identical across different seeds")
	}
	// Delay stays within bounds.
	bounded := &LinkFaults{Seed: 7, LinkProfile: LinkProfile{DelayMin: 2, DelayMax: 5}}
	for seq := 0; seq < 500; seq++ {
		if d := bounded.delay(0, 1, seq); d < 2 || d > 5 {
			t.Fatalf("delay %d outside [2,5]", d)
		}
	}
}

func TestPartitionWindows(t *testing.T) {
	lf := &LinkFaults{Partitions: []Partition{
		{Start: 2, End: 5, Group: []int{0, 1}},
		{Start: 4, End: 8, Group: []int{0}},
	}}
	if lf.blockedAt(0, 2, 0) {
		t.Error("blocked before any window")
	}
	if !lf.blockedAt(0, 2, 3) {
		t.Error("not blocked inside the first window")
	}
	if lf.blockedAt(0, 1, 3) {
		t.Error("intra-group link blocked")
	}
	// The two windows chain: link 0->2 clears only at 8.
	if at, ok := lf.clearFrom(0, 2, 2); !ok || at != 8 {
		t.Errorf("clearFrom = %d, %v; want 8, true", at, ok)
	}
	forever := &LinkFaults{Partitions: []Partition{{Start: 0, End: -1, Group: []int{1}}}}
	if _, ok := forever.clearFrom(1, 0, 0); ok {
		t.Error("forever partition reported as clearing")
	}
}

func TestAsyncFaultsDropWithRetransmissionDelivers(t *testing.T) {
	procs, origin := newEchoNet(4)
	e := NewAsyncEngine(procs, FIFOSchedule{})
	e.Faults = &LinkFaults{Seed: 3, LinkProfile: LinkProfile{DropProb: 0.5}}
	if _, err := e.Run(); err != nil {
		t.Fatalf("within-model drops must preserve delivery: %v", err)
	}
	if origin.pongs != 3 {
		t.Errorf("origin pongs = %d, want 3", origin.pongs)
	}
	if e.FaultStats.Dropped == 0 || e.FaultStats.Retransmits == 0 {
		t.Errorf("expected drops and retransmits at p=0.5, got %+v", e.FaultStats)
	}
	if e.FaultStats.Lost != 0 {
		t.Errorf("no message should be lost, got %+v", e.FaultStats)
	}
}

func TestAsyncFaultsExhaustedRetransmissionsTypedError(t *testing.T) {
	procs, _ := newEchoNet(3)
	e := NewAsyncEngine(procs, FIFOSchedule{})
	e.Faults = &LinkFaults{Seed: 1, LinkProfile: LinkProfile{DropProb: 1}, MaxAttempts: 3}
	_, err := e.Run()
	if !errors.Is(err, ErrDeliveryViolated) {
		t.Fatalf("err = %v, want ErrDeliveryViolated", err)
	}
	if e.FaultStats.Lost == 0 {
		t.Errorf("expected lost messages, got %+v", e.FaultStats)
	}
}

func TestAsyncFaultsForeverPartitionTypedError(t *testing.T) {
	procs, _ := newEchoNet(4)
	e := NewAsyncEngine(procs, FIFOSchedule{})
	e.Faults = &LinkFaults{Seed: 5, Partitions: []Partition{{Start: 0, End: -1, Group: []int{0}}}}
	_, err := e.Run()
	if !errors.Is(err, ErrDeliveryViolated) {
		t.Fatalf("err = %v, want ErrDeliveryViolated", err)
	}
	if e.FaultStats.Lost == 0 {
		t.Errorf("expected lost messages across the unhealed cut, got %+v", e.FaultStats)
	}
}

func TestAsyncFaultsHealingPartitionDelivers(t *testing.T) {
	procs, origin := newEchoNet(4)
	e := NewAsyncEngine(procs, FIFOSchedule{})
	e.Faults = &LinkFaults{Seed: 5, Partitions: []Partition{{Start: 0, End: 6, Group: []int{0}}}}
	if _, err := e.Run(); err != nil {
		t.Fatalf("healing partition must stay within model: %v", err)
	}
	if origin.pongs != 3 {
		t.Errorf("origin pongs = %d, want 3", origin.pongs)
	}
	if e.FaultStats.PartitionHeals == 0 {
		t.Errorf("expected partition heals, got %+v", e.FaultStats)
	}
}

func TestAsyncFaultsDuplicationDelivers(t *testing.T) {
	procs, origin := newEchoNet(3)
	e := NewAsyncEngine(procs, FIFOSchedule{})
	e.Faults = &LinkFaults{Seed: 9, LinkProfile: LinkProfile{DupProb: 1}}
	if _, err := e.Run(); err != nil {
		t.Fatalf("duplication must stay within model: %v", err)
	}
	if origin.pings != 0 || origin.pongs < 2 {
		t.Errorf("origin state pings=%d pongs=%d", origin.pings, origin.pongs)
	}
	if e.FaultStats.Duplicated == 0 {
		t.Errorf("expected duplicates, got %+v", e.FaultStats)
	}
	if e.Messages <= 2*2 {
		t.Errorf("duplicated run delivered %d messages, want more than the fault-free 4", e.Messages)
	}
}

func TestAsyncFaultsBoundedDelaysDeliver(t *testing.T) {
	procs, origin := newEchoNet(4)
	e := NewAsyncEngine(procs, &RandomSchedule{Rng: rand.New(rand.NewSource(2))})
	e.Faults = &LinkFaults{Seed: 11, LinkProfile: LinkProfile{DelayMin: 1, DelayMax: 5}}
	if _, err := e.Run(); err != nil {
		t.Fatalf("bounded delays must stay within model: %v", err)
	}
	if origin.pongs != 3 {
		t.Errorf("origin pongs = %d, want 3", origin.pongs)
	}
	if e.FaultStats.Delayed == 0 {
		t.Errorf("expected delayed copies, got %+v", e.FaultStats)
	}
}

// TestAsyncFaultsReplayDeterminism: the same policy seed replays the
// identical delivery transcript and fault statistics; this is the
// property the simtest harness and the batch race test build on.
func TestAsyncFaultsReplayDeterminism(t *testing.T) {
	run := func() ([]string, FaultStats) {
		procs, _ := newEchoNet(5)
		e := NewAsyncEngine(procs, &RandomSchedule{Rng: rand.New(rand.NewSource(4))})
		e.Faults = &LinkFaults{
			Seed:        77,
			LinkProfile: LinkProfile{DropProb: 0.3, DupProb: 0.2, DelayMax: 3},
			Partitions:  []Partition{{Start: 2, End: 9, Group: []int{1}}},
		}
		var transcript []string
		e.TraceFn = func(m Message) {
			transcript = append(transcript, fmt.Sprintf("%d>%d:%s", m.From, m.To, m.Tag))
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return transcript, e.FaultStats
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("fault stats differ across replays: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("transcript diverges at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

// TestAsyncZeroPolicyMatchesNilFaults: an all-zero policy must reproduce
// the exact delivery order of the fault-free engine (the nil-Faults fast
// path), so enabling the layer without intensities is a no-op.
func TestAsyncZeroPolicyMatchesNilFaults(t *testing.T) {
	run := func(lf *LinkFaults) []string {
		procs, _ := newEchoNet(5)
		e := NewAsyncEngine(procs, &RandomSchedule{Rng: rand.New(rand.NewSource(6))})
		e.Faults = lf
		var transcript []string
		e.TraceFn = func(m Message) {
			transcript = append(transcript, fmt.Sprintf("%d>%d:%s", m.From, m.To, m.Tag))
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return transcript
	}
	plain := run(nil)
	zero := run(&LinkFaults{Seed: 123})
	if len(plain) != len(zero) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(plain), len(zero))
	}
	for i := range plain {
		if plain[i] != zero[i] {
			t.Fatalf("zero policy diverges from nil faults at %d: %q vs %q", i, plain[i], zero[i])
		}
	}
}

func TestSyncFaultsDuplicationWithinModel(t *testing.T) {
	n := 4
	procs := make([]SyncProcess, n)
	fl := make([]*flooder, n)
	for i := range procs {
		fl[i] = &flooder{id: i, rounds: 2}
		procs[i] = fl[i]
	}
	e := NewSyncEngine(procs)
	e.Faults = &LinkFaults{Seed: 8, LinkProfile: LinkProfile{DupProb: 1}}
	if _, err := e.Run(); err != nil {
		t.Fatalf("duplication must not break lockstep: %v", err)
	}
	if e.FaultStats.Duplicated != n*(n-1) {
		t.Errorf("Duplicated = %d, want %d", e.FaultStats.Duplicated, n*(n-1))
	}
	for i, f := range fl {
		if len(f.received) != 2*(n-1) {
			t.Errorf("process %d received %d, want %d duplicated deliveries", i, len(f.received), 2*(n-1))
		}
	}
}

func TestSyncFaultsDropIsOutOfModel(t *testing.T) {
	procs := []SyncProcess{&pingpong{id: 0}, &pingpong{id: 1}}
	e := NewSyncEngine(procs)
	e.Faults = &LinkFaults{Seed: 2, LinkProfile: LinkProfile{DropProb: 1}, MaxAttempts: 1}
	_, err := e.Run()
	if !errors.Is(err, ErrDeliveryViolated) {
		t.Fatalf("err = %v, want ErrDeliveryViolated", err)
	}
}

func TestSyncFaultsDelayIsOutOfModel(t *testing.T) {
	n := 4
	procs := make([]SyncProcess, n)
	for i := range procs {
		procs[i] = &flooder{id: i, rounds: 2}
	}
	e := NewSyncEngine(procs)
	e.Faults = &LinkFaults{Seed: 4, LinkProfile: LinkProfile{DelayMin: 1, DelayMax: 2}}
	_, err := e.Run()
	if !errors.Is(err, ErrDeliveryViolated) {
		t.Fatalf("err = %v, want ErrDeliveryViolated", err)
	}
	if e.FaultStats.Delayed == 0 {
		t.Errorf("expected delayed messages, got %+v", e.FaultStats)
	}
}

func TestSyncFaultsForeverPartitionIsOutOfModel(t *testing.T) {
	n := 4
	procs := make([]SyncProcess, n)
	for i := range procs {
		procs[i] = &flooder{id: i, rounds: 2}
	}
	e := NewSyncEngine(procs)
	e.Faults = &LinkFaults{Seed: 4, Partitions: []Partition{{Start: 0, End: -1, Group: []int{0}}}}
	_, err := e.Run()
	if !errors.Is(err, ErrDeliveryViolated) {
		t.Fatalf("err = %v, want ErrDeliveryViolated", err)
	}
	if e.FaultStats.Lost == 0 {
		t.Errorf("expected lost messages, got %+v", e.FaultStats)
	}
}
