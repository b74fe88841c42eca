package analysis_test

import (
	"testing"

	"relaxedbvc/internal/analysis"
	"relaxedbvc/internal/analysis/analysistest"
)

// One fixture package per analyzer under testdata/src; each `// want`
// comment is a seeded violation the analyzer must report, and every
// unannotated line must stay silent.

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.NoDeterminism, "nodeterminism")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder, "maporder")
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, analysis.ErrWrap, "errwrap")
}

func TestFloatEq(t *testing.T) {
	analysistest.Run(t, analysis.FloatEq, "floateq")
}

func TestSeedFlow(t *testing.T) {
	analysistest.Run(t, analysis.SeedFlow, "seedflow")
}

func TestQuorumGate(t *testing.T) {
	analysistest.Run(t, analysis.QuorumGate, "quorumgate")
}

// TestAllowDirective proves the suppression contract: an own-line
// //bvclint:allow <analyzer> covers exactly the next line, a trailing
// one its own line, a directive naming another analyzer suppresses
// nothing, an unknown analyzer name is itself a diagnostic, and a
// directive whose analyzer ran but suppressed nothing is reported
// stale.
func TestAllowDirective(t *testing.T) {
	analysistest.Run(t, analysis.NoDeterminism, "allow")
}
