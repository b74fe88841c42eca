package experiments

// One benchmark per reproduced table/figure of DESIGN.md's index, each
// driving its experiment runner at the quick budgets. The benchmarks
// also assert that the experiment passed, so a bench run doubles as a
// reproduction run:
//
//	go test -run '^$' -bench=. -benchmem ./internal/experiments

import "testing"

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := Options{Seed: 11, Trials: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := Run(id, opt)
		if o == nil || !o.Pass {
			b.Fatalf("experiment %s failed", id)
		}
	}
}

func BenchmarkE1ExactBVC(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2KRelaxedSync(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3KRelaxedAsync(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4DeltaConstSync(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5DeltaConstAsync(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6Table1(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7Inradius(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8FacetRadii(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Holder(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10AsyncRVA(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Impossibility(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12Tverberg(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Degenerate(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Containment(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15Footnote3(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16ConjectureSweep(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17ConvexHull(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkE18Iterative(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19CostScaling(b *testing.B)     { benchExperiment(b, "E19") }
func BenchmarkE20BoundTightness(b *testing.B)  { benchExperiment(b, "E20") }
