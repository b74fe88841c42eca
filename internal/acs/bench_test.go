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

// acsEpochAllocs and acsEpochBytes are the measured heap allocations and
// bytes per epoch of protocolStream (all seven nodes, the engine and the
// epoch kernel, its caches cold). The same function measured
// parentACSEpochAllocs on the map-based Bracha/ABA, and
// parentACSEpochBytes on an engine that built fresh inboxes every round
// and nodes that built a fresh state every epoch.
const (
	acsEpochAllocs       = 834
	acsEpochBytes        = 77 << 10
	parentACSEpochAllocs = 5630
	parentACSEpochBytes  = 196 << 10
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of Puts at random: the epoch kernel's pooled scratch then
// allocates by design.
var raceEnabled bool

func TestACSEpochAllocationCeiling(t *testing.T) {
	const epochs = 40
	eng := protocolStream(t, epochs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / epochs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / epochs
	t.Logf("%.0f allocations and %.1f KiB per epoch (pinned %d and %d KiB; parents %d and %d KiB)",
		allocs, bytes/1024, acsEpochAllocs, acsEpochBytes>>10, parentACSEpochAllocs, parentACSEpochBytes>>10)
	if allocs > 1.5*acsEpochAllocs {
		t.Errorf("%.0f allocations per epoch, ceiling %.0f", allocs, 1.5*acsEpochAllocs)
	}
	if bytes > 1.5*acsEpochBytes && !raceEnabled {
		t.Errorf("%.1f KiB per epoch, ceiling %.1f KiB", bytes/1024, 1.5*acsEpochBytes/1024)
	}
}
