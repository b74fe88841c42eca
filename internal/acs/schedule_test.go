package acs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// acsAsyncKnownBad lists the runs of TestACSAsyncSchedules that stall
// today: the schedule drains the queue while some node is still short of
// the last epoch (seed 0 stands for every seed). The stream is built for
// lockstep delivery; ROADMAP item 14B is to empty this table. A listed
// run that seals every epoch fails the test, so a fix must delete its
// row.
var acsAsyncKnownBad = []struct {
	schedule string
	n        int
	seed     int64
}{
	{"lifo", 4, 0},
	{"lifo", 7, 0},
	{"random", 4, 7},
}

func acsAsyncStalls(schedule string, n int, seed int64) bool {
	for _, bad := range acsAsyncKnownBad {
		if bad.schedule == schedule && bad.n == n && (bad.seed == 0 || bad.seed == seed) {
			return true
		}
	}
	return false
}

// TestACSAsyncSchedules drives honest ACS streams through the driver's
// scheduled delivery, one message per Step: every run keeps prefix
// agreement (no two nodes seal different epochs), and every run outside
// acsAsyncKnownBad seals every epoch on every node.
func TestACSAsyncSchedules(t *testing.T) {
	const d, epochs = 2, 5
	schedules := map[string]func(seed int64) sched.Schedule{
		"fifo":    func(int64) sched.Schedule { return sched.FIFOSchedule{} },
		"lifo":    func(int64) sched.Schedule { return sched.LIFOSchedule{} },
		"random":  func(seed int64) sched.Schedule { return &sched.RandomSchedule{Rng: rand.New(rand.NewSource(seed))} },
		"starve0": func(int64) sched.Schedule { return &sched.DelayTargetSchedule{Slow: map[int]bool{0: true}} },
	}
	for name, schedule := range schedules {
		for _, n := range []int{4, 7} {
			for seed := int64(1); seed <= 8; seed++ {
				props := genProposals(rand.New(rand.NewSource(seed)), epochs, n, d)
				run, err := transport.RunCluster(context.Background(), transport.Plane{}, n, schedule(seed), nil, nil, func(i int) (*Node, error) {
					own := make([]vec.V, epochs)
					for e := range own {
						own[e] = props[e][i]
					}
					return NewNode(Config{N: n, F: (n - 1) / 3, Self: i, D: d, Proposals: own})
				})
				id := fmt.Sprintf("%s n=%d seed=%d", name, n, seed)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				sealedAll := true
				longest := run.Machines[0].Decisions()
				for _, node := range run.Machines {
					decs := node.Decisions()
					sealedAll = sealedAll && len(decs) == epochs
					if len(decs) > len(longest) {
						longest = decs
					}
				}
				for i, node := range run.Machines {
					decs := node.Decisions()
					if Fingerprint(decs) != Fingerprint(longest[:len(decs)]) {
						t.Errorf("%s: node %d's %d sealed epochs are not a prefix of the longest stream", id, i, len(decs))
					}
				}
				switch stalls := acsAsyncStalls(name, n, seed); {
				case stalls && sealedAll:
					t.Errorf("%s seals every epoch: delete its acsAsyncKnownBad row", id)
				case !stalls && !sealedAll:
					t.Errorf("%s stalls: some node sealed fewer than %d epochs", id, epochs)
				}
			}
		}
	}
}
