package relaxedbvc

// Benchmark harness: one benchmark per reproduced table/figure
// (BenchmarkE1..E14 drive the experiment runners of DESIGN.md's index),
// plus micro-benchmarks for the ablations called out in DESIGN.md
// (delta* closed form vs iterative, EIG vs signed broadcast, Gamma LP vs
// Tverberg search, L2 distance solvers, async schedules).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks also assert that the experiment passed, so a bench
// run doubles as a full reproduction run.

import (
	"context"

	"fmt"
	"math"
	"math/rand"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/experiments"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/tverberg"
	"relaxedbvc/internal/vec"
	"relaxedbvc/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := experiments.Options{Seed: 11, Trials: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := experiments.Run(id, opt)
		if o == nil || !o.Pass {
			b.Fatalf("experiment %s failed", id)
		}
	}
}

// One benchmark per table/figure of the reproduction index.

func BenchmarkE1ExactBVC(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2KRelaxedSync(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3KRelaxedAsync(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4DeltaConstSync(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5DeltaConstAsync(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Table1(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7Inradius(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8FacetRadii(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Holder(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10AsyncRVA(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Impossibility(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12Tverberg(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Degenerate(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14Containment(b *testing.B)    { benchExperiment(b, "E14") }

// --- Ablation micro-benchmarks ---

// delta* solver: closed form (Lemma 13) vs the cutting-plane loop on the
// same simplex (four facets, so four Wolfe solves per iterate).
func BenchmarkDeltaStarClosedForm(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	s := vec.NewSet(workload.Gaussian(rng, 4, 3, 2)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		minimax.DeltaStar2(s, 1)
	}
}

func BenchmarkDeltaStarIterative(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	s := vec.NewSet(workload.Gaussian(rng, 4, 3, 2)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		minimax.DeltaStar2Iterative(s, 1)
	}
}

// L2 point-to-hull distance: Wolfe min-norm point vs LP-based L1/Linf.
func BenchmarkDist2Wolfe(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	s := vec.NewSet(workload.Gaussian(rng, 8, 4, 2)...)
	q := workload.Gaussian(rng, 1, 4, 4)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.Dist2(q, s)
	}
}

func BenchmarkDistInfLP(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	s := vec.NewSet(workload.Gaussian(rng, 8, 4, 2)...)
	q := workload.Gaussian(rng, 1, 4, 4)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.DistInf(q, s)
	}
}

// Gamma point: direct big-LP vs Tverberg partition search.
func BenchmarkGammaPointLP(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	s := vec.NewSet(workload.Gaussian(rng, 7, 2, 2)...) // n=(d+1)f+1 with d=2,f=2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := relax.GammaPoint(s, 2); !ok {
			b.Fatal("Gamma empty above the bound")
		}
	}
}

func BenchmarkGammaPointTverberg(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	s := vec.NewSet(workload.Gaussian(rng, 7, 2, 2)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tverberg.Point(s, 2); !ok {
			b.Fatal("no Tverberg point above the bound")
		}
	}
}

// Broadcast: oral messages (EIG) vs signed (Dolev-Strong), message cost
// of one all-to-all broadcast on the simulation.
func benchBroadcast(b *testing.B, n int, build func(id int, input []byte) broadcast.Node) {
	b.Helper()
	b.ReportAllocs()
	var msgs int
	for i := 0; i < b.N; i++ {
		run, err := transport.RunCluster(context.Background(), transport.Plane{}, n, nil, nil, nil, func(id int) (broadcast.Node, error) {
			return build(id, broadcast.EncodeVec(vec.Of(float64(id), 1))), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs = run.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/run")
}

func BenchmarkBroadcastEIG(b *testing.B) {
	n, f := 5, 1
	benchBroadcast(b, n, func(id int, input []byte) broadcast.Node {
		return broadcast.NewEIGNode(n, f, id, input, nil, broadcast.EncodeVec(vec.New(2)))
	})
}

func BenchmarkBroadcastDolevStrong(b *testing.B) {
	n, f := 5, 1
	scheme := broadcast.NewSigScheme(n, 1)
	benchBroadcast(b, n, func(id int, input []byte) broadcast.Node {
		return broadcast.NewDSNode(n, f, id, input, scheme, nil, nil)
	})
}

// Full protocol benchmarks across the headline configurations.
func benchSpec(b *testing.B, spec Spec) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolExactBVC(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	benchSpec(b, Spec{Protocol: ProtocolExact, N: 5, F: 1, D: 3, Inputs: workload.Gaussian(rng, 5, 3, 2)})
}

func BenchmarkProtocolALGO(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	benchSpec(b, Spec{Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 3, NormP: 2, Inputs: workload.Gaussian(rng, 4, 3, 2)})
}

func BenchmarkProtocolKRelaxed(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	benchSpec(b, Spec{Protocol: ProtocolKRelaxed, N: 5, F: 1, D: 3, K: 2, Inputs: workload.Gaussian(rng, 5, 3, 2)})
}

// Async schedules ablation: RVA convergence cost under different
// adversarial delivery orders.
func benchAsyncSchedule(b *testing.B, mk func(i int) sched.Schedule) {
	b.Helper()
	rng := rand.New(rand.NewSource(27))
	inputs := workload.Gaussian(rng, 5, 2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := Spec{
			Protocol: ProtocolAsync, N: 5, F: 1, D: 2, Inputs: inputs, Rounds: 6,
			Mode: ModeExact, Schedule: mk(i),
		}
		if _, err := Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncFIFO(b *testing.B) {
	benchAsyncSchedule(b, func(int) sched.Schedule { return sched.FIFOSchedule{} })
}

func BenchmarkAsyncLIFO(b *testing.B) {
	benchAsyncSchedule(b, func(int) sched.Schedule { return sched.LIFOSchedule{} })
}

func BenchmarkAsyncRandom(b *testing.B) {
	benchAsyncSchedule(b, func(i int) sched.Schedule {
		return &sched.RandomSchedule{Rng: rand.New(rand.NewSource(int64(i)))}
	})
}

// Geometry micro-benchmarks that dominate the protocols' CPU profile.
func BenchmarkHullMembershipLP(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	s := vec.NewSet(workload.Gaussian(rng, 10, 5, 2)...)
	q := workload.Gaussian(rng, 1, 5, 1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.InHull(q, s)
	}
}

func BenchmarkPsiKFeasibility(b *testing.B) {
	s := vec.NewSet(workload.Theorem3Matrix(4, 1, 0.5)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := relax.PsiKPoint(s, 1, 2); ok {
			b.Fatal("proof matrix should empty Psi_2")
		}
	}
}

func BenchmarkDeltaStarInfLP(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	s := vec.NewSet(workload.Gaussian(rng, 5, 4, 2)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		relax.DeltaStarPoly(s, 1, math.Inf(1))
	}
}

func BenchmarkE15Footnote3(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16ConjectureSweep(b *testing.B) { benchExperiment(b, "E16") }

// Signed vs oral Step 1 at the protocol level.
func BenchmarkProtocolALGOSigned(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	benchSpec(b, Spec{
		Protocol: ProtocolDeltaRelaxed, N: 4, F: 1, D: 3, NormP: 2,
		Inputs:          workload.Gaussian(rng, 4, 3, 2),
		SignedBroadcast: true,
	})
}

// General-p delta* solver cost relative to the exact-norm paths.
func BenchmarkDeltaStarGeneralP3(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	s := vec.NewSet(workload.Gaussian(rng, 4, 3, 2)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		minimax.DeltaStarP(s, 1, 3)
	}
}

func BenchmarkE17ConvexHull(b *testing.B) { benchExperiment(b, "E17") }

func BenchmarkE18Iterative(b *testing.B) { benchExperiment(b, "E18") }

func BenchmarkProtocolIterative(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	benchSpec(b, Spec{
		Protocol: ProtocolIterative, N: 5, F: 1, D: 2,
		Inputs: workload.Gaussian(rng, 5, 2, 3),
		Rounds: 8,
	})
}

func BenchmarkE19CostScaling(b *testing.B) { benchExperiment(b, "E19") }

func BenchmarkE20BoundTightness(b *testing.B) { benchExperiment(b, "E20") }

// --- Parametric sweeps (cost scaling curves) ---

// delta* closed form across dimension: the Lemma 13 path is O(d^3) from
// the matrix inverse.
func BenchmarkSweepDeltaStarByDimension(b *testing.B) {
	for _, d := range []int{2, 4, 6, 8, 12} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			s := vec.NewSet(workload.Gaussian(rng, d+1, d, 2)...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				minimax.DeltaStar2(s, 1)
			}
		})
	}
}

// Oral-messages broadcast across n at f = 1 (quadratic relay tree).
func BenchmarkSweepEIGByN(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBroadcast(b, n, func(id int, input []byte) broadcast.Node {
				return broadcast.NewEIGNode(n, 1, id, input, nil, broadcast.EncodeVec(vec.New(2)))
			})
		})
	}
}

// Wolfe L2 distance across hull size.
func BenchmarkSweepDist2ByHullSize(b *testing.B) {
	for _, m := range []int{4, 8, 16, 32} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			s := vec.NewSet(workload.Gaussian(rng, m, 4, 2)...)
			q := workload.Gaussian(rng, 1, 4, 4)[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				geom.Dist2(q, s)
			}
		})
	}
}

// Gamma-point LP across f (the subset family is C(n, f)).
func BenchmarkSweepGammaByF(b *testing.B) {
	for _, f := range []int{1, 2} {
		f := f
		d := 2
		n := (d+1)*f + 1
		b.Run(fmt.Sprintf("f=%d_n=%d", f, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(43))
			s := vec.NewSet(workload.Gaussian(rng, n, d, 2)...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := relax.GammaPoint(s, f); !ok {
					b.Fatal("Gamma empty above the bound")
				}
			}
		})
	}
}

// Async RVA across rounds (message growth is linear in rounds).
func BenchmarkSweepAsyncByRounds(b *testing.B) {
	for _, rounds := range []int{2, 6, 12} {
		rounds := rounds
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			rng := rand.New(rand.NewSource(44))
			inputs := workload.Gaussian(rng, 5, 2, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := Spec{
					Protocol: ProtocolAsync, N: 5, F: 1, D: 2, Inputs: inputs, Rounds: rounds, Mode: ModeExact,
				}
				if _, err := Run(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
