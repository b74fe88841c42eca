package acs

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"relaxedbvc/internal/sched"
)

// protocolStream builds the acs_protocol shape — n=7 f=2 d=1 p=+Inf, all
// honest, so the kernel is one small LP and Bracha, ABA and the engine
// do the work — as one stream of the given length.
func protocolStream(tb testing.TB, epochs int) *sched.SyncEngine {
	cfg := Config{N: 7, F: 2, D: 1, NormP: math.Inf(1)}
	props := genProposals(rand.New(rand.NewSource(1)), epochs, cfg.N, cfg.D)
	_, procs := newCluster(tb, cfg, props, nil)
	return sched.NewSyncEngine(procs)
}

// BenchmarkACSEpoch times one epoch of a 7-node stream on the lockstep
// engine, all seven nodes and the engine included, in streams of 100
// epochs built off the clock; run with -benchmem.
func BenchmarkACSEpoch(b *testing.B) {
	b.ReportAllocs()
	for left := b.N; left > 0; left -= 100 {
		b.StopTimer()
		eng := protocolStream(b, min(left, 100))
		b.StartTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// acsEpochAllocs is the measured heap allocations per epoch of
// protocolStream (all seven nodes, the engine and the epoch kernel).
// The map-based Bracha/ABA this replaced measured parentACSEpochAllocs
// with this same function.
const (
	acsEpochAllocs       = 936
	parentACSEpochAllocs = 5630
)

func TestACSEpochAllocationCeiling(t *testing.T) {
	const epochs = 40
	eng := protocolStream(t, epochs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / epochs
	t.Logf("%.0f allocations per epoch (pinned %d, map-based parent %d)", got, acsEpochAllocs, parentACSEpochAllocs)
	if got > 1.5*acsEpochAllocs {
		t.Fatalf("%.0f allocations per epoch, ceiling %.0f", got, 1.5*acsEpochAllocs)
	}
}
