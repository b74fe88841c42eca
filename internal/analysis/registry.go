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
		MetricLabel,
		TransportErr,
		QuorumGate,
		LockSafe,
		CtxLeak,
		AtomicMix,
		ChanLife,
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
	// surface (plus the facade and batch engine that re-wrap them).
	ErrWrap.Name: {
		"internal/consensus", "internal/sched", "internal/batch", "relaxedbvc",
	},
	// Exact-vs-tolerance float discipline in the geometry kernels
	// validating the delta*(S) bounds.
	FloatEq.Name: {
		"internal/geom", "internal/lp", "internal/minimax", "internal/relax",
	},
	SeedFlow.Name:    nil, // module-wide
	MetricLabel.Name: nil, // module-wide
	// The message plane's single-root error chain: every transport
	// failure must satisfy errors.Is(err, transport.ErrTransport).
	TransportErr.Name: {
		"internal/transport",
	},
	// Quorum thresholds: every BVAL/AUX/readiness/resilience comparison
	// in the protocol layers must trace to a named helper.
	QuorumGate.Name: {
		"internal/acs", "internal/broadcast", "internal/consensus",
	},
	// Concurrency-heavy packages: the transport backends, the soak
	// coordinator/worker plane, the batch pool, and the shared caches
	// and registries they drain into.
	LockSafe.Name: {
		"internal/transport", "internal/soak", "internal/acs", "internal/batch",
		"internal/memo", "internal/metrics", "internal/trace",
	},
	CtxLeak.Name: {
		"internal/transport", "internal/soak", "internal/acs", "internal/batch",
		"internal/sched",
	},
	AtomicMix.Name: nil, // module-wide
	ChanLife.Name: {
		"internal/transport", "internal/soak", "internal/acs", "internal/batch",
		"internal/sched",
	},
}

// StrictExtraScope widens DefaultScope for `bvclint -strict` (the
// `make lint-strict` target): the concurrency and protocol analyzers
// also sweep the binaries and the CI guard scripts, which sit outside
// DefaultScope because their violations cannot corrupt a transcript —
// but can still deadlock a node.
var StrictExtraScope = map[string][]string{
	QuorumGate.Name: {"cmd/bvcnode", "cmd/bvcsoak", "cmd/bvcbench", "cmd/bvcfuzz", "cmd/bvcsim", "scripts"},
	LockSafe.Name:   {"cmd/bvcnode", "cmd/bvcsoak", "cmd/bvcbench", "cmd/bvcfuzz", "cmd/bvcsim", "scripts"},
	CtxLeak.Name:    {"cmd/bvcnode", "cmd/bvcsoak", "cmd/bvcbench", "cmd/bvcfuzz", "cmd/bvcsim", "scripts"},
	ChanLife.Name:   {"cmd/bvcnode", "cmd/bvcsoak", "cmd/bvcbench", "cmd/bvcfuzz", "cmd/bvcsim", "scripts"},
}

// InScope reports whether analyzer a applies to the package path.
func InScope(a *Analyzer, pkgPath string) bool {
	suffixes := DefaultScope[a.Name]
	if len(suffixes) == 0 {
		return true
	}
	return matchSuffix(suffixes, pkgPath)
}

// InScopeStrict is InScope plus the StrictExtraScope widening.
func InScopeStrict(a *Analyzer, pkgPath string) bool {
	return InScope(a, pkgPath) || matchSuffix(StrictExtraScope[a.Name], pkgPath)
}

func matchSuffix(suffixes []string, pkgPath string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
