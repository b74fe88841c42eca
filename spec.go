package relaxedbvc

// The unified front door of the library: one Spec describes any consensus
// instance — protocol, system size, inputs, adversary, network — and
// Run(ctx, spec) executes it with context cancellation and typed errors.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
)

// RunMetrics is the per-run metrics snapshot attached to every Result
// (see Result.Metrics). It aliases the internal metrics type so the
// observability layer stays dependency-free.
type RunMetrics = metrics.RunMetrics

// ServeDebug starts an HTTP server exposing net/http/pprof profiles and
// an expvar snapshot of the library's cumulative metrics registry at the
// given address (host:port; ":0" picks a free port). It returns the
// bound address. Intended for benchmarking and CI profiling, not
// production serving.
func ServeDebug(addr string) (string, error) { return metrics.ServeDebug(addr) }

// MetricsSnapshot returns a point-in-time copy of the library's
// cumulative metrics registry: consensus round/message counters, batch
// trial latency histograms, kernel solver iterations, LP pivot
// statistics. Snapshots are JSON-marshalable with a stable field order.
func MetricsSnapshot() *metrics.Snapshot { return metrics.Snap() }

// Protocol selects the consensus algorithm Run executes.
type Protocol int

const (
	// ProtocolDeltaRelaxed is Algorithm ALGO (Section 9): synchronous
	// (delta,p)-relaxed exact BVC with the smallest input-dependent delta.
	// The zero value, because it is the paper's headline algorithm.
	ProtocolDeltaRelaxed Protocol = iota
	// ProtocolExact is synchronous exact BVC (output in Gamma(S)).
	ProtocolExact
	// ProtocolKRelaxed is synchronous k-relaxed exact BVC (output in
	// Psi_k(S)); set Spec.K.
	ProtocolKRelaxed
	// ProtocolScalar is exact scalar Byzantine consensus (D must be 1).
	ProtocolScalar
	// ProtocolConvex is Byzantine convex hull consensus; set
	// Spec.Directions for the support-fan resolution.
	ProtocolConvex
	// ProtocolIterative is iterative approximate BVC (per-round estimate
	// exchange); set Spec.Rounds and optionally Spec.IterByzantine.
	ProtocolIterative
	// ProtocolAsync is asynchronous Relaxed Verified Averaging (or its
	// exact-validity baseline via Spec.Mode); set Spec.Rounds.
	ProtocolAsync
	// ProtocolK1Async is asynchronous 1-relaxed BVC via the per-coordinate
	// scalar reduction of Section 5.3.
	ProtocolK1Async
	// ProtocolACS is the streaming decision layer: Agreement on a Common
	// Subset (Ben-Or–Kelmer–Rabin; n parallel Bracha broadcasts plus one
	// binary agreement per slot) run once per epoch over Spec.Proposals,
	// each epoch's agreed subset reduced to one decided vector with the
	// delta*_p kernel. Decisions commit strictly in epoch order.
	ProtocolACS
)

// String returns the protocol's canonical name.
func (p Protocol) String() string {
	switch p {
	case ProtocolDeltaRelaxed:
		return "delta-relaxed"
	case ProtocolExact:
		return "exact"
	case ProtocolKRelaxed:
		return "k-relaxed"
	case ProtocolScalar:
		return "scalar"
	case ProtocolConvex:
		return "convex"
	case ProtocolIterative:
		return "iterative"
	case ProtocolAsync:
		return "async"
	case ProtocolK1Async:
		return "k1-async"
	case ProtocolACS:
		return "acs"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// Typed error sentinels. The consensus ones are re-exported from the
// implementation so errors.Is works across the API boundary.
var (
	ErrTooFewProcesses   = consensus.ErrTooFewProcesses
	ErrTooManyFaults     = consensus.ErrTooManyFaults
	ErrBadInputs         = consensus.ErrBadInputs
	ErrBadDimension      = consensus.ErrBadDimension
	ErrBadRounds         = consensus.ErrBadRounds
	ErrBadNorm           = consensus.ErrBadNorm
	ErrBadK              = consensus.ErrBadK
	ErrEmptyIntersection = consensus.ErrEmptyIntersection
	ErrCanceled          = consensus.ErrCanceled
	// ErrBadFaults: Spec.Faults has invalid parameters (probability
	// outside [0,1], inverted delay bounds, ...).
	ErrBadFaults = consensus.ErrBadFaults
	// ErrDeliveryViolated: the injected fault pattern broke the delivery
	// model the protocol assumes (a message was permanently lost, or
	// lockstep synchrony was violated). The run completed
	// deterministically but its outputs carry no guarantee.
	ErrDeliveryViolated = sched.ErrDeliveryViolated
	// ErrUnknownProtocol: Spec.Protocol is not one of the Protocol
	// constants.
	ErrUnknownProtocol = errors.New("relaxedbvc: unknown protocol")
)

// Spec describes one consensus instance for Run. Zero values select the
// documented defaults; fields irrelevant to the chosen Protocol are
// ignored.
type Spec struct {
	// Protocol selects the algorithm (default ProtocolDeltaRelaxed).
	Protocol Protocol

	// N, F, D are the process count, fault bound and vector dimension.
	N, F, D int
	// Inputs holds every process's input vector (len must be N).
	Inputs []Vector

	// K is the k-relaxation parameter (ProtocolKRelaxed; 1 <= K <= D).
	K int
	// NormP is the Lp norm of the relaxation: 1, 2 or LInf
	// (ProtocolDeltaRelaxed, ProtocolACS, ProtocolAsync in ModeRelaxed).
	// 0 means 2.
	NormP float64
	// Rounds is the round budget of the multi-round protocols
	// (ProtocolIterative, ProtocolAsync, ProtocolK1Async).
	Rounds int
	// Directions is the support-fan size of ProtocolConvex (0 = 2*D).
	Directions int
	// Mode selects the async round-0 choice (ProtocolAsync): ModeRelaxed
	// (default) or ModeExact.
	Mode AsyncMode

	// Byzantine scripts oral-broadcast adversaries of the synchronous
	// protocols (ids -> behavior; len <= F).
	Byzantine map[int]ByzantineBehavior
	// SignedBroadcast switches synchronous Step 1 to Dolev-Strong signed
	// broadcast (tolerates any f < n); ByzantineSigned scripts its
	// adversaries and SigSeed seeds the simulated PKI.
	SignedBroadcast bool
	ByzantineSigned map[int]SignedByzantineBehavior
	SigSeed         int64
	// AsyncByzantine scripts adversaries of the asynchronous protocols.
	AsyncByzantine map[int]*AsyncByzantine
	// IterByzantine scripts adversaries of the iterative protocol.
	IterByzantine map[int]IterByzantine
	// ACSByzantine scripts adversaries of the ACS stream (ids ->
	// behavior; len <= F).
	ACSByzantine map[int]ACSBehavior

	// Proposals drives ProtocolACS: Proposals[e][i] is process i's
	// proposal for epoch e; len(Proposals) is the stream length. Nil
	// falls back to a single epoch proposing Inputs.
	Proposals [][]Vector

	// Default is the fallback vector when broadcast resolves to garbage
	// (zero vector of dimension D if nil; synchronous protocols and ACS).
	// A non-nil Default of another dimension than D is ErrBadDimension.
	Default Vector
	// Schedule controls asynchronous delivery order (FIFO if nil).
	Schedule Schedule
	// Faults injects seeded link faults (drops, delays, duplication,
	// partitions) into the network substrate; nil injects nothing. Runs
	// are replayable: the same Spec (including Faults.Seed) reproduces the
	// same fault pattern, outputs and transcripts. Fault patterns that
	// break the protocol's delivery model return errors wrapping
	// ErrDeliveryViolated instead of producing unguaranteed outputs.
	Faults *LinkFaults
	// Trace observes every delivered message (hook a TraceRecorder here).
	Trace func(Message)
}

// Result is the unified outcome of Run. Fields not produced by the
// executed protocol are left at their zero values.
type Result struct {
	// Protocol echoes the protocol that ran.
	Protocol Protocol
	// Outputs[i] is process i's decision (nil for async processes that
	// never decided; unset for ProtocolConvex).
	Outputs []Vector
	// Delta[i] is the relaxation radius process i achieved
	// (ProtocolDeltaRelaxed and relaxed-mode async runs).
	Delta []float64
	// AgreedSet[i] is the Step-1 multiset of process i (synchronous
	// single-shot protocols).
	AgreedSet []*PointSet
	// Vertices[i] is process i's agreed polytope (ProtocolConvex).
	Vertices [][]Vector
	// RoundSpread traces the per-round honest value spread
	// (ProtocolAsync).
	RoundSpread []float64
	// RangeHistory traces the honest estimate range per round
	// (ProtocolIterative; nil on TCP, where a node holds only its own
	// estimate).
	RangeHistory []float64
	// ACS[i] is process i's sealed epoch-decision sequence
	// (ProtocolACS; nil for processes another node executed, as on the
	// TCP backend). Outputs[i] and Delta[i] mirror the last epoch's
	// decision so the generic tooling sees a point decision too.
	ACS [][]ACSEpoch
	// Rounds, Steps and Messages are network statistics (whichever apply).
	Rounds, Steps, Messages int
	// Metrics is the per-run observability snapshot: protocol name, wall
	// time, round/step/message counts, Byzantine message drops and EIG
	// tree size (where the protocol produces them).
	Metrics *RunMetrics
}

// HonestIDs returns, in ascending order, the process ids that the
// adversary roster of s.Protocol does not script: Byzantine (or
// ByzantineSigned under SignedBroadcast) for the synchronous protocols
// and ProtocolConvex, IterByzantine, AsyncByzantine for both
// asynchronous protocols, and ACSByzantine. Entries in a roster the
// protocol does not read leave the id honest, as the run does.
func (s *Spec) HonestIDs() []int {
	var ids []int
	for i := 0; i < s.N; i++ {
		var bad bool
		switch s.Protocol {
		case ProtocolIterative:
			_, bad = s.IterByzantine[i]
		case ProtocolAsync, ProtocolK1Async:
			_, bad = s.AsyncByzantine[i]
		case ProtocolACS:
			_, bad = s.ACSByzantine[i]
		default:
			if s.SignedBroadcast {
				_, bad = s.ByzantineSigned[i]
			} else {
				_, bad = s.Byzantine[i]
			}
		}
		if !bad {
			ids = append(ids, i)
		}
	}
	return ids
}

// NonFaultyInputs returns the multiset of inputs held by honest
// processes — the S of the paper's delta*(S) and validity conditions.
// An ACS spec may leave Inputs short or nil (it proposes through
// Proposals); ids past len(Inputs) contribute nothing.
func (s *Spec) NonFaultyInputs() *PointSet {
	set := NewPointSet()
	for _, i := range s.HonestIDs() {
		if i < len(s.Inputs) {
			set.Append(s.Inputs[i])
		}
	}
	return set
}

// syncConfig assembles the internal synchronous config from a Spec.
func (s *Spec) syncConfig() *consensus.SyncConfig {
	return &consensus.SyncConfig{
		N: s.N, F: s.F, D: s.D,
		Inputs:          s.Inputs,
		Byzantine:       s.Byzantine,
		SignedBroadcast: s.SignedBroadcast,
		ByzantineSigned: s.ByzantineSigned,
		SigSeed:         s.SigSeed,
		Default:         s.Default,
		Faults:          s.Faults,
		Trace:           s.Trace,
	}
}

// asyncConfig assembles the internal asynchronous config from a Spec.
func (s *Spec) asyncConfig() *consensus.AsyncConfig {
	return &consensus.AsyncConfig{
		N: s.N, F: s.F, D: s.D,
		Inputs:    s.Inputs,
		Rounds:    s.Rounds,
		Mode:      s.Mode,
		NormP:     s.NormP,
		Byzantine: s.AsyncByzantine,
		Schedule:  s.Schedule,
		Faults:    s.Faults,
		Trace:     s.Trace,
	}
}

// norm returns the Spec's relaxation norm, defaulting to 2.
func (s *Spec) norm() float64 {
	if s.NormP == 0 {
		return 2
	}
	return s.NormP
}

// Run executes the consensus instance described by spec. It honors ctx:
// cancellation or deadline expiry aborts the run at the next protocol
// round or Step-2 choice with an error matching both ErrCanceled and the
// context's own error. All failures wrap the package's typed sentinels
// (errors.Is-matchable).
//
// Options customize the execution without changing the instance: the
// message-plane backend (WithTransport — deterministic simulation by
// default, in-process mesh or real TCP otherwise).
func Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	start := time.Now()
	plane, err := o.transport.plane(&spec)
	if err != nil {
		return nil, err
	}
	res, err := runOn(ctx, plane, &spec)
	if err != nil {
		return nil, err
	}
	res.Metrics.Protocol = spec.Protocol.String()
	res.Metrics.Transport = o.transport.Kind.String()
	res.Metrics.WallNanos = time.Since(start).Nanoseconds()
	res.Metrics.Rounds = res.Rounds
	res.Metrics.Steps = res.Steps
	res.Metrics.Messages = res.Messages
	if spec.Protocol == ProtocolIterative {
		res.Metrics.Rounds = spec.Rounds // Result.Rounds stays 0 for iterative runs
	}
	return res, nil
}

// runOn executes spec's protocol on an already resolved plane. Every
// protocol runs through transport.RunCluster, which refuses what a real
// plane cannot do (DESIGN section 11.4; TestPlaneMatrix pins the table).
func runOn(ctx context.Context, plane transport.Plane, spec *Spec) (*Result, error) {
	if spec.Default != nil && spec.Default.Dim() != spec.D {
		return nil, fmt.Errorf("%w: Default has dimension %d, want %d", ErrBadDimension, spec.Default.Dim(), spec.D)
	}
	res := &Result{Protocol: spec.Protocol, Metrics: &RunMetrics{}}
	cfg := spec.syncConfig()
	var choose consensus.Chooser
	var err error
	switch spec.Protocol {
	case ProtocolDeltaRelaxed:
		choose, err = consensus.DeltaRelaxedChooser(cfg, spec.norm())
	case ProtocolExact:
		choose = consensus.ExactChooser(cfg)
	case ProtocolKRelaxed:
		choose, err = consensus.KRelaxedChooser(cfg, spec.K)
	case ProtocolScalar:
		choose, err = consensus.ScalarChooser(cfg)
	case ProtocolConvex:
		cr, err := consensus.RunConvexHull(ctx, plane, cfg, spec.Directions)
		if err != nil {
			return nil, err
		}
		res.Vertices = cr.Vertices
		res.Rounds = cr.Rounds
		res.Messages = cr.Messages
		fillFaultMetrics(res.Metrics, cr.Faults)
		fillTransportMetrics(res.Metrics, cr.Transport)
		return res, nil
	case ProtocolIterative:
		ir, err := consensus.RunIterativeBVC(ctx, plane, &consensus.IterConfig{
			N: spec.N, F: spec.F, D: spec.D,
			Inputs:    spec.Inputs,
			Rounds:    spec.Rounds,
			Byzantine: spec.IterByzantine,
			Faults:    spec.Faults,
			Trace:     spec.Trace,
		})
		if err != nil {
			return nil, err
		}
		res.Outputs = ir.Outputs
		res.RangeHistory = ir.RangeHistory
		res.Messages = ir.Messages
		fillFaultMetrics(res.Metrics, ir.Faults)
		fillTransportMetrics(res.Metrics, ir.Transport)
		return res, nil
	case ProtocolAsync, ProtocolK1Async:
		run := consensus.RunAsync
		if spec.Protocol == ProtocolK1Async {
			run = consensus.RunK1Async
		}
		ar, err := run(ctx, plane, spec.asyncConfig())
		if err != nil {
			return nil, err
		}
		res.Outputs = ar.Outputs
		res.Delta = ar.Delta
		res.RoundSpread = ar.RoundSpread
		res.Steps = ar.Steps
		res.Messages = ar.Messages
		fillFaultMetrics(res.Metrics, ar.Faults)
		return res, nil
	case ProtocolACS:
		return runACS(ctx, plane, spec)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownProtocol, int(spec.Protocol))
	}
	if err != nil {
		return nil, err
	}
	sr, err := consensus.RunSync(ctx, plane, cfg, choose)
	if err != nil {
		return nil, err
	}
	res.Outputs = sr.Outputs
	res.Delta = sr.Delta
	res.AgreedSet = sr.AgreedSet
	res.Rounds = sr.Rounds
	res.Messages = sr.Messages
	res.Metrics.ByzantineDrops = sr.Drops
	res.Metrics.EIGTreeNodes = sr.TreeNodes
	fillFaultMetrics(res.Metrics, sr.Faults)
	fillTransportMetrics(res.Metrics, sr.Transport)
	return res, nil
}

func fillFaultMetrics(m *RunMetrics, fs sched.FaultStats) {
	m.LinkDrops = fs.Dropped
	m.LinkDuplicates = fs.Duplicated
	m.LinkDelays = fs.Delayed
	m.Retransmits = fs.Retransmits
	m.PartitionHeals = fs.PartitionHeals
}

func fillTransportMetrics(m *RunMetrics, st transport.Stats) {
	m.TransportFramesSent = st.FramesSent
	m.TransportFramesReceived = st.FramesReceived
	m.TransportReconnects = st.Reconnects
}

// ComputeDeltaStar returns delta*_p(S) — the smallest delta for which
// Gamma_(delta,p)(S) is non-empty — with an attaining point. p = 1 and
// p = LInf are exact LPs; p = 2 uses the Lemma 13 closed form or the L2
// minimax solver; any other p > 1 returns a certified upper bound: the
// largest Lp distance from the delta*_2 point to the nearest points of
// the hulls, which is 0 up to rounding where Gamma(S) is non-empty and up
// to ~17% above delta*_p below it (minimax.DeltaStarP dispatches).
func ComputeDeltaStar(s *PointSet, f int, p float64) (float64, Vector, error) {
	if s == nil || s.Len() == 0 {
		return 0, nil, fmt.Errorf("%w: empty point set", ErrBadInputs)
	}
	if f < 1 || f >= s.Len() {
		return 0, nil, fmt.Errorf("%w: need 1 <= f < |S|, got f=%d with |S|=%d", ErrTooManyFaults, f, s.Len())
	}
	if !(p >= 1) {
		return 0, nil, fmt.Errorf("%w: p=%v (need p >= 1)", ErrBadNorm, p)
	}
	r := minimax.DeltaStarP(s, f, p)
	return r.Delta, r.Point, nil
}

// CacheCounters reports one kernel cache's hit/miss statistics.
//
// Deprecated: the kernels keep no cache; every count is zero.
type CacheCounters struct {
	Hits, Misses        int64
	Overflow, Evictions int64
	Entries, Capacity   int
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c CacheCounters) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// KernelCacheStats aggregates the per-package geometry-kernel caches.
//
// Deprecated: the kernels keep no cache; every count is zero.
type KernelCacheStats struct {
	// Geometry covers the hull predicates (InHull, DistP in every norm).
	Geometry CacheCounters
	// Relax covers the Gamma/DeltaStarPoly intersection solvers.
	Relax CacheCounters
	// Minimax covers the DeltaStar2 minimax solver.
	Minimax CacheCounters
}

// Totals returns the combined counters of all kernel caches.
func (k KernelCacheStats) Totals() CacheCounters {
	return CacheCounters{
		Hits:      k.Geometry.Hits + k.Relax.Hits + k.Minimax.Hits,
		Misses:    k.Geometry.Misses + k.Relax.Misses + k.Minimax.Misses,
		Overflow:  k.Geometry.Overflow + k.Relax.Overflow + k.Minimax.Overflow,
		Evictions: k.Geometry.Evictions + k.Relax.Evictions + k.Minimax.Evictions,
		Entries:   k.Geometry.Entries + k.Relax.Entries + k.Minimax.Entries,
		Capacity:  k.Geometry.Capacity + k.Relax.Capacity + k.Minimax.Capacity,
	}
}

// SetKernelWorkers does nothing: the geometry kernels are sequential.
//
// Deprecated: there is no kernel worker budget to set.
func SetKernelWorkers(int) {}

// KernelWorkers returns 1: the geometry kernels run on the caller's
// goroutine.
//
// Deprecated: there is no kernel worker budget.
func KernelWorkers() int { return 1 }

// CacheStats returns zero counters: kernel results are shared only
// inside a Run, never through a process-wide cache.
//
// Deprecated: there is no kernel cache to report on.
func CacheStats() KernelCacheStats { return KernelCacheStats{} }

// ResetCaches does nothing: there is no kernel cache to drop.
//
// Deprecated: there is no kernel cache to reset.
func ResetCaches() {}
