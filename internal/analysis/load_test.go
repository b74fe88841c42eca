package analysis_test

import (
	"testing"

	"relaxedbvc/internal/analysis"
)

// TestLoadRealPackage exercises the export-data loader against an
// in-module package with both stdlib and in-module imports.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := analysis.Load("../..", "relaxedbvc/internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "relaxedbvc/internal/sched" {
		t.Fatalf("want exactly relaxedbvc/internal/sched, got %v", pkgs)
	}
	p := pkgs[0]
	if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
		t.Fatal("loaded package missing types or syntax")
	}
	if obj := p.Types.Scope().Lookup("ErrDeliveryViolated"); obj == nil {
		t.Fatal("expected sched.ErrDeliveryViolated in package scope")
	}
}

// TestRepoTreeClean is the same gate `make lint` enforces: the full
// module must produce zero findings once the in-tree //bvclint:allow
// annotations are applied, and none of them may be stale. It compiles
// the whole module via `go list -export`, so it is skipped in -short
// runs (CI runs it through the lint step anyway).
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; covered by `make lint` in CI")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
