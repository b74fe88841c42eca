package acs

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
)

// protocolStream builds the acs_protocol shape — n=7 f=2 d=1 p=+Inf, so
// the kernel is one small LP and Bracha, ABA and the engine do the work
// — as one stream of the given length, with the given adversaries.
func protocolStream(tb testing.TB, epochs int, behaviors map[int]Behavior) (*sched.SyncEngine, []*Node) {
	cfg := Config{N: 7, F: 2, D: 1, NormP: math.Inf(1)}
	props := genProposals(rand.New(rand.NewSource(1)), epochs, cfg.N, cfg.D)
	nodes, procs := newCluster(tb, cfg, props, behaviors)
	return sched.NewSyncEngine(procs), nodes
}

// runStream runs the stream and joins every node's kernel jobs, so that
// a measurement taken after it includes the kernels.
func runStream(tb testing.TB, eng *sched.SyncEngine, nodes []*Node) {
	if _, err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	for _, node := range nodes {
		node.Decisions()
	}
}

// epochShapes are the streams whose epochs are measured: all honest,
// and with node 6 equivocating as in the acs_protocol benchmark, where
// every process tallies a second value for slot 6.
//
// allocs and bytes are the measured heap allocations and bytes per
// epoch of protocolStream (all seven nodes, the engine and the epoch
// kernel). The same function measured parentAllocs and parentBytes on
// nodes that allocated every Bracha instance, row and tally value and
// every decoded proposal afresh. (BenchmarkACSEpoch, whose kernel
// results were then cached across iterations, read 735 allocations and
// 29.1 KiB per honest epoch when every ECHO/READY and BVAL/AUX was a
// message of its own, and 284 and 20.2 KiB with one body per link.)
var epochShapes = []struct {
	name                      string
	behaviors                 map[int]Behavior
	allocs, bytes             int
	parentAllocs, parentBytes int
}{
	{"honest", nil, 161, 21 << 10, 356, 27 << 10},
	{"equivocator", map[int]Behavior{6: Equivocate}, 169, 20 << 10, 411, 29 << 10},
}

// BenchmarkACSEpoch times one epoch of a 7-node stream on the lockstep
// engine, all seven nodes, the engine and the epoch kernels included, in
// streams of 100 epochs built off the clock; run with -benchmem.
func BenchmarkACSEpoch(b *testing.B) {
	for _, shape := range epochShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for left := b.N; left > 0; left -= 100 {
				b.StopTimer()
				eng, nodes := protocolStream(b, min(left, 100), shape.behaviors)
				b.StartTimer()
				runStream(b, eng, nodes)
			}
		})
	}
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of Puts at random: the epoch kernel's pooled scratch then
// allocates by design. raceAllocs is the allowance that adds to the
// allocation ceiling (20 race runs of both shapes read 51–88 extra
// allocations per epoch); the bytes ceiling is checked only without it.
var raceEnabled bool

const raceAllocs = 100

func TestACSEpochAllocationCeiling(t *testing.T) {
	const epochs = 40
	for _, shape := range epochShapes {
		t.Run(shape.name, func(t *testing.T) {
			eng, nodes := protocolStream(t, epochs, shape.behaviors)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runStream(t, eng, nodes)
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / epochs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / epochs
			t.Logf("%.0f allocations and %.1f KiB per epoch (pinned %d and %d KiB; parents %d and %d KiB)",
				allocs, bytes/1024, shape.allocs, shape.bytes>>10, shape.parentAllocs, shape.parentBytes>>10)
			ceiling := 1.5 * float64(shape.allocs)
			if raceEnabled {
				ceiling += raceAllocs
			}
			if allocs > ceiling {
				t.Errorf("%.0f allocations per epoch, ceiling %.0f", allocs, ceiling)
			}
			if bytes > 1.5*float64(shape.bytes) && !raceEnabled {
				t.Errorf("%.1f KiB per epoch, ceiling %.1f KiB", bytes/1024, 1.5*float64(shape.bytes)/1024)
			}
		})
	}
}

// TestACSBodiesPerLink runs the acs_protocol shape with its equivocating
// node 6 and requires every (sender, recipient, round) to carry at most
// one aba body and one Bracha vote message besides the INITs, every INIT
// to travel alone, and bodies of several votes to occur on both layers.
func TestACSBodiesPerLink(t *testing.T) {
	const epochs = 20
	cfg := Config{N: 7, F: 2, D: 1, NormP: math.Inf(1)}
	props := genProposals(rand.New(rand.NewSource(1)), epochs, cfg.N, cfg.D)
	nodes, procs := newCluster(t, cfg, props, map[int]Behavior{6: Equivocate})
	type link struct{ from, to, round int }
	aba, rbc := make(map[link]int), make(map[link]int)
	inits, abaBodies, rbcBodies := 0, 0, 0
	eng := sched.NewSyncEngine(procs)
	eng.TraceFn = func(m sched.Message) {
		l := link{m.From, m.To, m.SentRound}
		switch {
		case m.Tag == ABATag:
			aba[l]++
			if len(m.Data) > abaVoteLen {
				abaBodies++
			}
		case m.Data[0] == 0: // an INIT: id and value fields, nothing after
			_, rest, _ := broadcast.ReadField(m.Data[3:])
			if _, rest, err := broadcast.ReadField(rest); err != nil || len(rest) != 0 {
				t.Fatalf("%+v: an INIT shares its message", l)
			}
			inits++
		default:
			rbc[l]++
			if m.Data[0] == 3 {
				rbcBodies++
			}
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for l, k := range aba {
		if k > 1 {
			t.Fatalf("%+v carried %d aba messages", l, k)
		}
	}
	for l, k := range rbc {
		if k > 1 {
			t.Fatalf("%+v carried %d rbc vote messages", l, k)
		}
	}
	if len(nodes[0].Decisions()) != epochs || inits < epochs*cfg.N || abaBodies == 0 || rbcBodies == 0 {
		t.Fatalf("%d epochs sealed, %d INITs, %d aba and %d rbc bodies of several votes", len(nodes[0].Decisions()), inits, abaBodies, rbcBodies)
	}
	t.Logf("%d messages per epoch: %d INITs, %d aba and %d rbc links", eng.Messages/epochs, inits, len(aba), len(rbc))
}

// BenchmarkACSAsyncDelivery times a 5-epoch n=7 honest stream under
// scheduled delivery, one Step per message, and reports the cost per
// delivery: FIFO takes the queue's head, starve-node-0 the first copy
// past node 0's starved prefix.
func BenchmarkACSAsyncDelivery(b *testing.B) {
	const n, d, epochs = 7, 2, 5
	props := genProposals(rand.New(rand.NewSource(1)), epochs, n, d)
	for name, schedule := range map[string]func() sched.Schedule{
		"fifo":    func() sched.Schedule { return sched.FIFOSchedule{} },
		"starve0": func() sched.Schedule { return &sched.DelayTargetSchedule{Slow: map[int]bool{0: true}} },
	} {
		b.Run(name, func(b *testing.B) {
			deliveries := 0
			for i := 0; i < b.N; i++ {
				_, procs := newCluster(b, Config{N: n, F: 2, D: d}, props, nil)
				eng := sched.NewAsyncEngine(procs, schedule())
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				deliveries += eng.Messages
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(deliveries), "ns/delivery")
			b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/op")
		})
	}
}
