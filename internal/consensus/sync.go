// Package consensus implements the paper's consensus algorithms — the
// core contribution of the library:
//
// Synchronous (exact) algorithms, all following the two-step pattern of
// Algorithm ALGO (Section 9): Step 1 Byzantine-broadcasts every input
// with the oral-messages EIG protocol so that all non-faulty processes
// obtain an identical multiset S; Step 2 deterministically chooses the
// output from S:
//
//   - Exact BVC [19]: a point of Gamma(S), non-empty when
//     n >= max(3f+1, (d+1)f+1);
//   - k-relaxed exact BVC: a point of Psi_k(S) (k = 1 reduces to
//     per-coordinate scalar consensus; n >= (d+1)f+1 for 2 <= k <= d);
//   - (delta,p)-relaxed exact BVC = Algorithm ALGO: the smallest delta
//     with Gamma_(delta,p)(S) non-empty and a deterministic point of it
//     (closed form / minimax for p = 2, exact LP for p in {1, inf});
//   - exact scalar Byzantine consensus (d = 1).
//
// Asynchronous (approximate) algorithms live in async.go.
package consensus

import (
	"context"
	"fmt"
	"math"
	"time"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// SyncConfig describes one synchronous consensus instance.
type SyncConfig struct {
	N, F, D int
	// Inputs holds every process's input vector; for Byzantine processes
	// this is the value their EIG behavior starts from (often irrelevant).
	Inputs []vec.V
	// Byzantine maps process ids to their broadcast-level behavior.
	// len(Byzantine) must be <= F. Used by the default oral-messages
	// Step 1; ignored when SignedBroadcast is set.
	Byzantine map[int]broadcast.EIGBehavior
	// SignedBroadcast switches Step 1 from the oral-messages EIG
	// protocol (n >= 3f+1) to Dolev-Strong signed broadcast, which
	// tolerates any f < n. This models the paper's footnote 3: with an
	// authenticated/broadcast channel the 3f+1 requirement disappears
	// and the relaxed-consensus bounds improve accordingly.
	SignedBroadcast bool
	// ByzantineSigned maps process ids to Dolev-Strong-level behaviors
	// (only consulted when SignedBroadcast is set). len <= F.
	ByzantineSigned map[int]broadcast.DSBehavior
	// SigSeed seeds the simulated PKI of the signed mode (default 1).
	SigSeed int64
	// Default is the fallback vector used when broadcast resolves to
	// garbage (zero vector of dimension D if nil).
	Default vec.V
	// Faults, when set, injects seeded link faults into Step 1. The
	// lockstep model only tolerates duplication; other patterns complete
	// the run and return an error wrapping sched.ErrDeliveryViolated.
	Faults *sched.LinkFaults
	// Trace, when set, observes every delivered Step-1 message (hook a
	// trace.Recorder here for message-level transcripts).
	Trace func(sched.Message)
}

// validate checks the instance shape. A nil input stands for a process
// whose machine a peer runs (a TCP node knows only its own vector); the
// machine builder rejects a nil in a column this process executes.
func (c *SyncConfig) validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: n must be >= 2, got %d", ErrTooFewProcesses, c.N)
	}
	if c.F < 0 || len(c.Byzantine) > c.F || len(c.ByzantineSigned) > c.F {
		return fmt.Errorf("%w: %d Byzantine processes with f=%d", ErrTooManyFaults, len(c.Byzantine)+len(c.ByzantineSigned), c.F)
	}
	if c.F >= c.N {
		return fmt.Errorf("%w: f=%d >= n=%d", ErrTooManyFaults, c.F, c.N)
	}
	if !c.SignedBroadcast {
		if err := broadcast.CheckEIGTree(c.N, c.F); err != nil {
			return fmt.Errorf("%w: oral-messages Step 1: %w (use SignedBroadcast)", ErrTooManyFaults, err)
		}
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrBadInputs, len(c.Inputs), c.N)
	}
	for i, v := range c.Inputs {
		if v != nil && v.Dim() != c.D {
			return c.badInput(i)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrBadFaults, err)
		}
	}
	return nil
}

func (c *SyncConfig) badInput(i int) error {
	return fmt.Errorf("%w: input %d has dimension %d, want %d", ErrBadDimension, i, c.Inputs[i].Dim(), c.D)
}

func (c *SyncConfig) defaultVec() vec.V {
	if c.Default != nil {
		return c.Default
	}
	return vec.New(c.D)
}

// SyncResult is the outcome of a synchronous run.
type SyncResult struct {
	// Outputs[i] is process i's decision (Byzantine processes included;
	// their entries are whatever their honest-side computation yields and
	// carry no guarantee).
	Outputs []vec.V
	// AgreedSet[i] is the multiset process i obtained from Step 1; all
	// honest entries are identical when the broadcast preconditions hold.
	AgreedSet []*vec.Set
	// Delta[i] is the relaxation radius process i used (ALGO only).
	Delta []float64
	// Rounds and Messages are network statistics of Step 1.
	Rounds, Messages int
	// Drops is the number of sends suppressed by scripted Byzantine
	// behaviors during Step 1.
	Drops int
	// TreeNodes is the total EIG tree size across all processes and
	// instances (0 in signed-broadcast mode, which builds no trees).
	TreeNodes int
	// Faults counts injected link-fault events during Step 1 (zero when
	// no fault policy was configured).
	Faults sched.FaultStats
	// Transport sums the local endpoints' traffic (zero on the
	// simulation).
	Transport transport.Stats
}

// HonestIDs returns the non-Byzantine process ids of a config.
func (c *SyncConfig) HonestIDs() []int {
	var ids []int
	for i := 0; i < c.N; i++ {
		_, badOM := c.Byzantine[i]
		_, badDS := c.ByzantineSigned[i]
		if !badOM && !badDS {
			ids = append(ids, i)
		}
	}
	return ids
}

// NonFaultyInputs returns the multiset of inputs at honest processes.
func (c *SyncConfig) NonFaultyInputs() *vec.Set {
	s := vec.NewSet()
	for _, i := range c.HonestIDs() {
		s.Append(c.Inputs[i])
	}
	return s
}

// step1Info carries the decoded multisets and the network statistics of
// one Step-1 broadcast.
type step1Info struct {
	// local lists the ids whose machine ran in this process; sets is
	// indexed by id and nil elsewhere.
	local            []int
	sets             []*vec.Set
	rounds, messages int
	drops, treeNodes int
	faults           sched.FaultStats
	transport        transport.Stats
}

// step1 runs the all-to-all Byzantine broadcast on plane — one
// lockstep machine per process, oral-messages EIG by default or
// Dolev-Strong when signed — and decodes, per local process, the agreed
// multiset of n vectors.
func step1(ctx context.Context, plane transport.Plane, cfg *SyncConfig) (*step1Info, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	def := cfg.defaultVec()
	defEnc := broadcast.EncodeVec(def)
	var scheme *broadcast.SigScheme
	if cfg.SignedBroadcast { // every node derives every key from the seed
		seed := cfg.SigSeed
		if seed == 0 {
			seed = 1
		}
		scheme = broadcast.NewSigScheme(cfg.N, seed)
	}
	run, err := transport.RunCluster(ctx, plane, cfg.N, nil, cfg.Faults, cfg.Trace, func(id int) (broadcast.Node, error) {
		if cfg.Inputs[id].Dim() != cfg.D {
			return nil, cfg.badInput(id)
		}
		in := broadcast.EncodeVec(cfg.Inputs[id])
		if scheme != nil {
			return broadcast.NewDSNode(cfg.N, cfg.F, id, in, scheme, cfg.ByzantineSigned[id], defEnc), nil
		}
		return broadcast.NewEIGNode(cfg.N, cfg.F, id, in, cfg.Byzantine[id], defEnc), nil
	})
	if err != nil {
		return nil, err
	}
	info := &step1Info{
		local: run.Local, sets: make([]*vec.Set, cfg.N),
		rounds: run.Rounds, messages: run.Messages,
		faults: run.Faults, transport: run.Stats,
	}
	info.drops, info.treeNodes = broadcast.CountRun(run.Machines)
	for _, i := range run.Local {
		s := vec.NewSet()
		for _, b := range run.Machines[i].Decided() {
			v, err := broadcast.DecodeVec(b)
			if err != nil || v.Dim() != cfg.D {
				v = def.Clone()
			}
			s.Append(v)
		}
		info.sets[i] = s
	}
	return info, nil
}

// setKey produces a canonical key of a multiset for memoizing Step 2.
func setKey(s *vec.Set) string {
	var b []byte
	for _, p := range s.Points() {
		b = append(b, broadcast.EncodeVec(p)...)
	}
	return string(b)
}

// runSync is the one driver of the two-step pattern: Step 1 on plane,
// then the deterministic choice function applied to every local
// process's multiset, memoized across identical multisets (all honest
// ones). It returns Step 1's statistics and the choices by process id.
// The context is polled every Step-1 round and before each process's
// choice, so cancellation lands between rounds of LP work.
func runSync[T any](ctx context.Context, plane transport.Plane, cfg *SyncConfig, choose func(*vec.Set) (T, error)) (*step1Info, []T, error) {
	if err := sched.Canceled(ctx); err != nil {
		return nil, nil, err
	}
	info, err := step1(ctx, plane, cfg)
	if err != nil {
		errorsTotal.Inc()
		return nil, nil, err
	}
	type memo struct {
		pick T
		err  error
	}
	cache := make(map[string]memo)
	picks := make([]T, cfg.N)
	for _, i := range info.local {
		if err := sched.Canceled(ctx); err != nil {
			return nil, nil, err
		}
		k := setKey(info.sets[i])
		m, ok := cache[k]
		if !ok {
			//bvclint:allow nodeterminism -- metrics-only: wall time feeds the step-2 latency histogram, never a protocol decision
			chooseStart := time.Now()
			m.pick, m.err = choose(info.sets[i])
			//bvclint:allow nodeterminism -- metrics-only: observation of the timing started above
			step2Seconds.Observe(time.Since(chooseStart).Seconds())
			cache[k] = m
		}
		if m.err != nil {
			errorsTotal.Inc()
			return nil, nil, fmt.Errorf("consensus: process %d choice failed: %w", i, m.err)
		}
		picks[i] = m.pick
	}
	runsTotal.Inc()
	roundsTotal.Add(int64(info.rounds))
	messagesTotal.Add(int64(info.messages))
	return info, picks, nil
}

// RunSync runs the synchronous instance cfg on plane and decides with
// choose. On TCP only this process's slot of the result is filled; the
// peers each produce their own.
func RunSync(ctx context.Context, plane transport.Plane, cfg *SyncConfig, choose Chooser) (*SyncResult, error) {
	type pick struct {
		out   vec.V
		delta float64
	}
	info, picks, err := runSync(ctx, plane, cfg, func(s *vec.Set) (pick, error) {
		out, delta, err := choose(s)
		return pick{out, delta}, err
	})
	if err != nil {
		return nil, err
	}
	res := &SyncResult{
		Outputs:   make([]vec.V, cfg.N),
		AgreedSet: info.sets,
		Delta:     make([]float64, cfg.N),
		Rounds:    info.rounds,
		Messages:  info.messages,
		Drops:     info.drops,
		TreeNodes: info.treeNodes,
		Faults:    info.faults,
		Transport: info.transport,
	}
	for _, i := range info.local {
		res.Outputs[i] = picks[i].out.Clone()
		res.Delta[i] = picks[i].delta
	}
	return res, nil
}

// Chooser is a deterministic Step-2 choice function: given the agreed
// multiset S from Step 1 it returns the decision vector and (for the
// relaxed algorithm) the relaxation radius delta. Every honest process
// applying the same Chooser to the same S decides identically — which
// is why one Chooser drives every plane.
type Chooser func(s *vec.Set) (vec.V, float64, error)

// ExactChooser returns the exact-BVC choice: a deterministic point of
// Gamma(S), or ErrEmptyIntersection when the bound n >= (d+1)f+1 does
// not hold and the adversary emptied the intersection.
func ExactChooser(cfg *SyncConfig) Chooser {
	return func(s *vec.Set) (vec.V, float64, error) {
		pt, ok := relax.GammaPoint(s, cfg.F)
		if !ok {
			return nil, 0, fmt.Errorf("%w: Gamma(S) is empty (n=%d below the (d+1)f+1=%d bound?)", ErrEmptyIntersection, cfg.N, (cfg.D+1)*cfg.F+1)
		}
		return pt, 0, nil
	}
}

// KRelaxedChooser returns the k-relaxed choice: a deterministic point
// of Psi_k(S), with the k = 1 scalar reduction of Section 5.3.
func KRelaxedChooser(cfg *SyncConfig, k int) (Chooser, error) {
	if k < 1 || k > cfg.D {
		return nil, fmt.Errorf("%w: k=%d out of range [1,%d]", ErrBadK, k, cfg.D)
	}
	if k == 1 {
		return func(s *vec.Set) (vec.V, float64, error) {
			return scalarPerCoordinate(s, cfg.F), 0, nil
		}, nil
	}
	return func(s *vec.Set) (vec.V, float64, error) {
		pt, ok := relax.PsiKPoint(s, cfg.F, k)
		if !ok {
			return nil, 0, fmt.Errorf("%w: Psi_%d(S) is empty (n=%d below the (d+1)f+1=%d bound?)", ErrEmptyIntersection, k, cfg.N, (cfg.D+1)*cfg.F+1)
		}
		return pt, 0, nil
	}, nil
}

// DeltaRelaxedChooser returns Algorithm ALGO's choice: the smallest
// delta with Gamma_(delta,p)(S) non-empty and the deterministic point
// attaining it (minimax.DeltaStarP). Supported p: 2 (closed form /
// minimax), 1 and +Inf (exact LP).
func DeltaRelaxedChooser(cfg *SyncConfig, p float64) (Chooser, error) {
	if p != 1 && p != 2 && !math.IsInf(p, 1) {
		return nil, fmt.Errorf("%w: p=%v (use 1, 2 or +Inf)", ErrBadNorm, p)
	}
	if err := checkNormFaults(cfg.F, p); err != nil {
		return nil, err
	}
	return func(s *vec.Set) (vec.V, float64, error) {
		r := minimax.DeltaStarP(s, cfg.F, p)
		return r.Point, r.Delta, nil
	}, nil
}

// checkNormFaults refuses f < 1 at a norm other than 1 and +Inf: the
// exact LPs of p in {1, +Inf} decide f = 0, but the delta*_2 kernel
// drops f points from a subset and needs f >= 1.
func checkNormFaults(f int, p float64) error {
	if f < 1 && p != 1 && !math.IsInf(p, 1) {
		return fmt.Errorf("%w: delta*_p at p=%v needs f >= 1, got f=%d (use p = 1 or +Inf)", ErrTooManyFaults, p, f)
	}
	return nil
}

// ScalarChooser returns the d = 1 exact scalar consensus choice
// (trim f from each side, decide the interval midpoint).
func ScalarChooser(cfg *SyncConfig) (Chooser, error) {
	if cfg.D != 1 {
		return nil, fmt.Errorf("%w: scalar consensus requires d=1, got %d", ErrBadDimension, cfg.D)
	}
	return KRelaxedChooser(cfg, 1)
}

// RunExactBVC runs exact Byzantine vector consensus [19]: the output is a
// deterministic point of Gamma(S). Gamma is guaranteed non-empty when
// n >= max(3f+1, (d+1)f+1) (Theorem 1); below the bound an adversarial
// input set can make it empty, in which case ErrEmptyIntersection is
// returned.
func RunExactBVC(ctx context.Context, cfg *SyncConfig) (*SyncResult, error) {
	return RunSync(ctx, transport.Plane{}, cfg, ExactChooser(cfg))
}

// RunKRelaxedBVC runs k-relaxed exact BVC: the output is a deterministic
// point of Psi_k(S). For k = 1 it uses the scalar reduction of Section
// 5.3 (independent per-coordinate scalar consensus); n >= 3f+1 suffices.
// For 2 <= k <= d the tight requirement is n >= (d+1)f+1 (Theorem 3).
func RunKRelaxedBVC(ctx context.Context, cfg *SyncConfig, k int) (*SyncResult, error) {
	choose, err := KRelaxedChooser(cfg, k)
	if err != nil {
		return nil, err
	}
	return RunSync(ctx, transport.Plane{}, cfg, choose)
}

// scalarPerCoordinate applies the d=1 exact consensus choice to each
// coordinate: sort the n agreed values, trim f from each side, take the
// midpoint of the surviving interval. The result lies in the projection
// of the non-faulty inputs on every coordinate (1-relaxed validity).
func scalarPerCoordinate(s *vec.Set, f int) vec.V {
	d := s.Dim()
	out := vec.New(d)
	for j := 0; j < d; j++ {
		xs := s.SortedCoordinate(j)
		lo, hi := xs[f], xs[len(xs)-1-f]
		out[j] = (lo + hi) / 2
	}
	return out
}

// RunDeltaRelaxedBVC runs Algorithm ALGO for (delta,p)-relaxed exact BVC
// with input-dependent delta: after Step 1 every process computes the
// smallest delta for which Gamma_(delta,p)(S) is non-empty and picks the
// deterministic point attaining it. Supported p: 2 (Lemma 13 closed form
// or minimax), 1 and +Inf (exact LP). Requires n >= 3f+1 for Step 1.
func RunDeltaRelaxedBVC(ctx context.Context, cfg *SyncConfig, p float64) (*SyncResult, error) {
	choose, err := DeltaRelaxedChooser(cfg, p)
	if err != nil {
		return nil, err
	}
	return RunSync(ctx, transport.Plane{}, cfg, choose)
}

// --- Result validation helpers (used by tests, experiments, examples) ---

// AgreementError returns the maximum pairwise L-infinity distance between
// the outputs of the given processes (0 means exact agreement).
func AgreementError(outputs []vec.V, ids []int) float64 {
	m := 0.0
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			if d := outputs[ids[a]].Sub(outputs[ids[b]]).NormP(math.Inf(1)); d > m {
				m = d
			}
		}
	}
	return m
}

// CheckExactValidity reports whether out lies in the convex hull of the
// non-faulty inputs (within tolerance tol).
func CheckExactValidity(out vec.V, nonFaulty *vec.Set, tol float64) bool {
	d, _ := geom.Dist2(out, nonFaulty)
	return d <= tol
}

// CheckKValidity reports whether out lies in H_k of the non-faulty
// inputs, with per-projection L2 tolerance tol.
func CheckKValidity(out vec.V, nonFaulty *vec.Set, k int, tol float64) bool {
	d := out.Dim()
	okAll := true
	vec.Combinations(d, k, func(D []int) bool {
		dist, _ := geom.Dist2(vec.Project(out, D), nonFaulty.Project(D))
		if dist > tol {
			okAll = false
			return false
		}
		return true
	})
	return okAll
}

// CheckDeltaValidity reports whether out lies within Lp distance delta
// (+tol) of the convex hull of the non-faulty inputs (Definition 10's
// (delta,p)-Relaxed Validity).
func CheckDeltaValidity(out vec.V, nonFaulty *vec.Set, delta, p, tol float64) bool {
	dist, _ := geom.DistP(out, nonFaulty, p)
	return dist <= delta+tol
}
