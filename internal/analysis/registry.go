package analysis

import "strings"

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		MapOrder,
		ErrWrap,
		FloatEq,
		SeedFlow,
		QuorumGate,
	}
}

// ByName resolves an analyzer by its directive name.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// DefaultScope maps each analyzer to the package-path suffixes it
// applies to when run over the repo tree (empty slice = every
// package). Scoping lives in the driver, not the analyzers, so the
// analysistest fixtures — whose import paths are arbitrary — exercise
// the passes directly.
var DefaultScope = map[string][]string{
	// Protocol packages: everything that participates in a replayed
	// execution transcript.
	NoDeterminism.Name: {
		"internal/consensus", "internal/broadcast", "internal/sched", "internal/adversary",
	},
	// Protocol + geometry: map order leaks into transcripts via
	// message emission and into Table 1 numbers via float sums.
	MapOrder.Name: {
		"internal/consensus", "internal/broadcast", "internal/sched", "internal/adversary",
		"internal/geom", "internal/lp", "internal/minimax", "internal/relax",
		"internal/simplexgeo", "internal/tverberg", "internal/vec",
	},
	// The errors.Is contract is declared on the consensus/sched
	// surface, the facade and batch engine that re-wrap them, and the
	// message plane, whose errors all chain transport.ErrTransport.
	ErrWrap.Name: {
		"internal/consensus", "internal/sched", "internal/batch", "internal/transport", "relaxedbvc",
	},
	// Exact-vs-tolerance float discipline in the geometry kernels
	// validating the delta*(S) bounds.
	FloatEq.Name: {
		"internal/geom", "internal/lp", "internal/minimax", "internal/relax",
	},
	SeedFlow.Name: nil, // module-wide
	// Quorum thresholds: every BVAL/AUX/readiness/resilience comparison
	// in the protocol layers must trace to a named helper.
	QuorumGate.Name: {
		"internal/acs", "internal/broadcast", "internal/consensus",
	},
}

// InScope reports whether analyzer a applies to the package path.
func InScope(a *Analyzer, pkgPath string) bool {
	suffixes := DefaultScope[a.Name]
	if len(suffixes) == 0 {
		return true
	}
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
