package consensus

import (
	"context"
	"fmt"
	"math"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// Iterative approximate Byzantine vector consensus (the algorithm family
// of Vaidya [18], complete-graph case, cited in Related Work): processes
// keep a current estimate, exchange it every round with plain
// point-to-point messages (no Byzantine broadcast, no message history),
// and move to a deterministic safe point of the received multiset —
// here, the centroid of axis-direction support points of Gamma(received,
// f). Because the safe point lies in the convex hull of every
// (n-f)-subset of the received values, it lies in the hull of the honest
// values, so the honest estimates' hull shrinks monotonically; the range
// contracts geometrically in practice for n >= (d+2)f+1.
//
// Numerical caveat: when a Byzantine value is orders of magnitude larger
// than the honest spread, the Gamma geometry degenerates into thin
// slivers and the safe point is accurate only to a small noise floor
// (see projectIntoIntersection); contraction holds down to that floor.

// IterByzantine scripts a Byzantine process in the iterative protocol:
// each round it may send an arbitrary per-recipient vector.
type IterByzantine interface {
	// Value returns what the process sends to `to` in the given round;
	// nil means silence.
	Value(round, to int, honest vec.V) vec.V
}

// IterByzantineFunc adapts a function to IterByzantine.
type IterByzantineFunc func(round, to int, honest vec.V) vec.V

// Value implements IterByzantine.
func (f IterByzantineFunc) Value(round, to int, honest vec.V) vec.V {
	return f(round, to, honest)
}

// IterConfig configures an iterative run.
type IterConfig struct {
	N, F, D int
	Inputs  []vec.V
	Rounds  int
	// Byzantine maps ids to per-round behaviors (len <= F).
	Byzantine map[int]IterByzantine
	// Faults, when set, injects seeded link faults. The lockstep model
	// only tolerates duplication; other patterns complete the run and
	// return an error wrapping sched.ErrDeliveryViolated.
	Faults *sched.LinkFaults
	// Trace, when set, observes every delivered message.
	Trace func(sched.Message)
}

// IterResult is the outcome of an iterative run.
type IterResult struct {
	// Outputs[i] is process i's estimate after Rounds rounds.
	Outputs []vec.V
	// RangeHistory[r] is the maximum pairwise L-inf distance of honest
	// estimates entering round r (RangeHistory[0] = initial spread).
	RangeHistory []float64
	Messages     int
	// Faults counts injected link-fault events (zero when no fault policy
	// was configured).
	Faults sched.FaultStats
	// Transport sums the local endpoints' traffic (zero on the
	// simulation).
	Transport transport.Stats
}

type iterProcess struct {
	cfg     *IterConfig
	self    int
	value   vec.V
	byz     IterByzantine
	history []vec.V // the value entering every round, then the output
}

func (p *iterProcess) emit(round int) []sched.Outgoing {
	var outs []sched.Outgoing
	for to := 0; to < p.cfg.N; to++ {
		if to == p.self {
			continue
		}
		v := p.value
		if p.byz != nil {
			v = p.byz.Value(round, to, p.value)
			if v == nil {
				continue
			}
		}
		outs = append(outs, sched.Outgoing{To: to, Tag: "iter", Data: broadcast.EncodeVec(v)})
	}
	return outs
}

func (p *iterProcess) Start() []sched.Outgoing { return p.emit(0) }

func (p *iterProcess) Step(round int, delivered []sched.Message) []sched.Outgoing {
	received := vec.NewSet(p.value.Clone())
	// One estimate per sender per round: link-level duplicates must not
	// double a Byzantine value's weight in the Gamma(received, f) update
	// (dropping f values can only exclude f copies).
	seen := make(map[int]bool, len(delivered))
	for _, m := range delivered {
		if m.Tag != "iter" || seen[m.From] {
			continue
		}
		seen[m.From] = true
		v, err := broadcast.DecodeVec(m.Data)
		if err != nil || v.Dim() != p.cfg.D {
			continue
		}
		received.Append(v)
	}
	// Update rule: deterministic interior point of Gamma(received, f),
	// provided enough values arrived. Silent faulty processes shrink the
	// multiset, which only helps (Lemma 16).
	if received.Len() > p.cfg.F {
		if pt, ok := safeGammaCentroid(received, p.cfg.F); ok {
			p.value = pt
		}
	}
	p.history = append(p.history, p.value)
	if p.Done() {
		return nil
	}
	return p.emit(round + 1)
}

func (p *iterProcess) Done() bool { return len(p.history) > p.cfg.Rounds }

// safeGammaCentroid returns the mean of the certified +/- axis support
// points of Gamma(S, f) — an interior-leaning point of the safe area —
// refined by cyclic projections so it truly lies in every subset hull.
// ok=false when Gamma is empty.
//
// The refinement matters: when a Byzantine value is far from a tight
// honest cluster, the subset hulls containing it are near-degenerate
// slivers and the support-point LPs (whose tolerances scale with the
// Byzantine magnitude) can return points visibly outside the honest
// hull, breaking the contraction invariant. Cyclic projection with
// Wolfe's min-norm algorithm operates at the local geometry's own scale
// and restores the invariant to ~1e-12.
func safeGammaCentroid(s *vec.Set, f int) (vec.V, bool) {
	fam := relax.DroppedSubsets(s, f)
	d := s.Dim()
	dirs := make([]vec.V, 0, 2*d)
	for j := 0; j < d; j++ {
		for _, sign := range []float64{1, -1} {
			dir := vec.New(d)
			dir[j] = sign
			dirs = append(dirs, dir)
		}
	}
	sum, got := vec.New(d), 0
	for _, pt := range relax.SupportPoints(fam, dirs) {
		if pt != nil {
			sum.AddInPlace(pt)
			got++
		}
	}
	if got == 0 {
		// No support point certified (the sliver regime below): start
		// from the LP's Gamma point instead.
		pt, ok := relax.GammaPoint(s, f)
		if !ok {
			return nil, false
		}
		return projectIntoIntersection(pt, fam), true
	}
	return projectIntoIntersection(sum.Scale(1/float64(got)), fam), true
}

// projectIntoIntersection moves pt into the intersection of the hulls of
// the family: a few cyclic-projection sweeps (cheap, removes the bulk of
// the LP slack), then — if the geometry is so ill-conditioned that POCS
// crawls (thin slivers formed by a far Byzantine value next to a tight
// honest cluster) — a minimax polish on F(x) = max hull distance, whose
// Wolfe-based evaluations are accurate at the local scale.
func projectIntoIntersection(pt vec.V, fam []*vec.Set) vec.V {
	worstOf := func(x vec.V) float64 {
		w := 0.0
		for _, s := range fam {
			if d, _ := geom.Dist2(x, s); d > w {
				w = d
			}
		}
		return w
	}
	tol := 1e-11 * (1 + pt.NormP(math.Inf(1)))
	for sweep := 0; sweep < 12; sweep++ {
		moved := false
		for _, s := range fam {
			if d, nearest := geom.Dist2(pt, s); d > 0 {
				pt = nearest
				moved = true
			}
		}
		if !moved {
			return pt
		}
		if worstOf(pt) <= tol {
			return pt
		}
	}
	if worstOf(pt) <= tol {
		return pt
	}
	// Sliver regime: the minimax solver, seeded here, brackets the least
	// attainable worst distance. Nothing moves unless the improvement is
	// larger than what the bracket leaves undecided. The solver's point
	// can lie anywhere in the region it certifies, while the contraction
	// needs the safe point to stay where the centroid put it: F is convex
	// on the segment towards it, so bisect for the first point that
	// reaches the solver's level.
	res := minimax.MinMaxDist2(fam, pt)
	if worstOf(pt)-res.Delta <= res.Delta-res.Lower {
		return pt
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		if mid := (lo + hi) / 2; minimax.MaxDist2(vec.Lerp(pt, res.Point, mid), fam) <= res.Delta {
			hi = mid
		} else {
			lo = mid
		}
	}
	return vec.Lerp(pt, res.Point, hi)
}

// RunIterativeBVC runs the iterative protocol on plane for the
// configured number of rounds and returns the final estimates plus the
// per-round honest range history. On TCP only this process's estimate is
// filled, and the range history, which needs every honest estimate, is
// nil. The context is polled once per round.
func RunIterativeBVC(ctx context.Context, plane transport.Plane, cfg *IterConfig) (*IterResult, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w: n must be >= 2, got %d", ErrTooFewProcesses, cfg.N)
	}
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("%w: %d inputs for n=%d", ErrBadInputs, len(cfg.Inputs), cfg.N)
	}
	if len(cfg.Byzantine) > cfg.F {
		return nil, fmt.Errorf("%w: %d Byzantine with f=%d", ErrTooManyFaults, len(cfg.Byzantine), cfg.F)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadRounds, cfg.Rounds)
	}
	badInput := func(i int) error {
		return fmt.Errorf("%w: input %d dimension %d != %d", ErrBadDimension, i, cfg.Inputs[i].Dim(), cfg.D)
	}
	for i, v := range cfg.Inputs {
		// nil: a process a peer runs (a TCP node knows only its own input)
		if v != nil && v.Dim() != cfg.D {
			return nil, badInput(i)
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadFaults, err)
		}
	}
	if err := sched.Canceled(ctx); err != nil {
		return nil, err
	}
	run, err := transport.RunCluster(ctx, plane, cfg.N, nil, cfg.Faults, cfg.Trace, func(i int) (*iterProcess, error) {
		if cfg.Inputs[i].Dim() != cfg.D {
			return nil, badInput(i)
		}
		v := cfg.Inputs[i].Clone()
		return &iterProcess{cfg: cfg, self: i, value: v, byz: cfg.Byzantine[i], history: []vec.V{v}}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &IterResult{Outputs: make([]vec.V, cfg.N), Messages: run.Messages, Faults: run.Faults, Transport: run.Stats}
	for _, i := range run.Local {
		res.Outputs[i] = run.Machines[i].value.Clone()
	}
	if len(run.Local) == cfg.N {
		var honest []*iterProcess
		for i, ip := range run.Machines {
			if _, bad := cfg.Byzantine[i]; !bad {
				honest = append(honest, ip)
			}
		}
		for r := 0; r <= cfg.Rounds; r++ {
			res.RangeHistory = append(res.RangeHistory, honestRange(honest, r))
		}
	}
	iterRuns.Inc()
	runsTotal.Inc()
	roundsTotal.Add(int64(cfg.Rounds))
	messagesTotal.Add(int64(res.Messages))
	return res, nil
}

// honestRange is the largest pairwise L-inf distance between the honest
// estimates entering round r (r = Rounds: the outputs).
func honestRange(honest []*iterProcess, r int) float64 {
	worst := 0.0
	for a := 0; a < len(honest); a++ {
		for b := a + 1; b < len(honest); b++ {
			if d := honest[a].history[r].Sub(honest[b].history[r]).NormP(math.Inf(1)); d > worst {
				worst = d
			}
		}
	}
	return worst
}
