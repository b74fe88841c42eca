package consensus

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/minimax"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// AsyncMode selects the round-0 choice function of the asynchronous
// algorithm (the H function of Definition 12).
type AsyncMode int

const (
	// ModeRelaxed is the Relaxed Verified Averaging Algorithm of Section
	// 10: the round-0 choice is the deterministic point attaining the
	// smallest delta with Gamma_(delta,2)(X) non-empty. Requires only
	// n >= 3f+1 and provides (delta,2)-relaxed validity with
	// delta < kappa(n-f, f, d, 2) * max_{e in E+} ||e||_2 (Theorem 15).
	ModeRelaxed AsyncMode = iota
	// ModeExact is the delta = 0 baseline (Verified Averaging [15] /
	// approximate BVC): the round-0 choice is a deterministic point of
	// Gamma(X), which requires n >= (d+2)f+1 (Theorem 2).
	ModeExact
)

// AsyncByzantine describes a Byzantine process in the asynchronous
// algorithm. The verification discipline of the algorithm constrains
// Byzantine processes to either follow the averaging rule (possibly with
// an arbitrary round-0 input) or have their messages discarded; this
// struct exposes exactly those choices.
type AsyncByzantine struct {
	// Input overrides the process's round-0 value (arbitrary vector).
	Input vec.V
	// SilentFrom makes the process broadcast nothing from this round on
	// (0 = completely silent). Use a large value for "never silent".
	SilentFrom int
	// CorruptFrom makes the process send unverifiable garbage (wrong
	// averages) from this round on; honest processes will discard these.
	CorruptFrom int
	// MuteRBC makes the process refuse to participate even in the
	// reliable-broadcast layer (no echoes or readies) — the harshest
	// silence the model allows.
	MuteRBC bool
}

// NeverMisbehave is a convenience for the SilentFrom/CorruptFrom fields.
const NeverMisbehave = math.MaxInt32

// AsyncConfig describes one asynchronous consensus instance.
type AsyncConfig struct {
	N, F, D int
	Inputs  []vec.V
	// Rounds R: processes broadcast rounds 0..R-1 and decide the value
	// they compute for round R. Larger R gives tighter epsilon-agreement.
	Rounds int
	Mode   AsyncMode
	// NormP selects the Lp norm of the (delta,p)-relaxed round-0 choice
	// in ModeRelaxed: 2 (default when 0), 1, or math.Inf(1). Theorem 15
	// covers all of them; p = 2 uses the minimax solver, the polyhedral
	// norms use exact LPs.
	NormP float64
	// Byzantine maps process ids to behaviors (len <= F).
	Byzantine map[int]*AsyncByzantine
	// Schedule controls message delivery order (FIFO if nil).
	Schedule sched.Schedule
	// Faults, when set, injects seeded link faults. Within-model patterns
	// (drops recovered by retransmission, bounded delays, duplication,
	// healing partitions) preserve eventual delivery and the algorithm's
	// guarantees; patterns that permanently lose a message surface as
	// errors wrapping sched.ErrDeliveryViolated.
	Faults *sched.LinkFaults
	// Trace, when set, observes every delivered message.
	Trace func(sched.Message)
}

// AsyncResult is the outcome of an asynchronous run.
type AsyncResult struct {
	// Outputs[i] is the decided vector of process i (nil if it never
	// decided — only possible for Byzantine/silent processes).
	Outputs []vec.V
	// Delta[i] is the relaxation radius process i computed at its round-0
	// choice (ModeRelaxed only).
	Delta []float64
	// RoundSpread[r] is the maximum pairwise L-inf distance among the
	// round-r values that honest processes verified (the convergence
	// trace: RoundSpread[0] is the spread of accepted inputs, later
	// entries contract toward the epsilon-agreement level).
	RoundSpread []float64
	// Steps is the number of message deliveries; Messages the number of
	// point-to-point messages.
	Steps, Messages int
	// Faults counts injected link-fault events (zero when no fault policy
	// was configured).
	Faults sched.FaultStats
}

// chooseMemo shares deterministic choice computations across simulated
// processes. Every process would compute identical results for identical
// (round, witness multiset) keys; the cache only avoids repeating that
// work, it does not change any outcome.
type chooseMemo struct {
	m map[string]memoEntry
}

type memoEntry struct {
	val   vec.V
	delta float64
	ok    bool
}

// rvaProcess implements the Relaxed Verified Averaging state machine.
type rvaProcess struct {
	cfg      *AsyncConfig
	self     int
	bs       *broadcast.BrachaState
	byz      *AsyncByzantine
	memo     *chooseMemo
	verified map[int]map[int]vec.V // round -> sender -> value
	pending  []rvaMsg
	myRound  int // last round broadcast
	started  bool
	decided  vec.V
	delta    float64
	advanced map[int]bool
}

type rvaMsg struct {
	sender  int
	round   int
	value   vec.V
	witness []int
}

func encodeRVA(round int, value vec.V, witness []int) []byte {
	out := make([]byte, 2)
	binary.BigEndian.PutUint16(out, uint16(round))
	out = append(out, broadcast.EncodeVec(value)...)
	// Witness as a path suffix (length-prefixed ids).
	out = append(out, encodeWitness(witness)...)
	return out
}

func encodeWitness(w []int) []byte {
	out := make([]byte, 2+2*len(w))
	binary.BigEndian.PutUint16(out, uint16(len(w)))
	for i, x := range w {
		binary.BigEndian.PutUint16(out[2+2*i:], uint16(x))
	}
	return out
}

func decodeRVA(b []byte, d int) (round int, value vec.V, witness []int, err error) {
	if len(b) < 2 {
		return 0, nil, nil, fmt.Errorf("%w: short rva message", ErrBadMessage)
	}
	round = int(binary.BigEndian.Uint16(b))
	vlen := 4 + 8*d
	if len(b) < 2+vlen+2 {
		return 0, nil, nil, fmt.Errorf("%w: truncated rva message", ErrBadMessage)
	}
	value, err = broadcast.DecodeVec(b[2 : 2+vlen])
	if err != nil {
		return 0, nil, nil, err
	}
	wb := b[2+vlen:]
	wlen := int(binary.BigEndian.Uint16(wb))
	if len(wb) != 2+2*wlen {
		return 0, nil, nil, fmt.Errorf("%w: bad rva witness length", ErrBadMessage)
	}
	witness = make([]int, wlen)
	for i := range witness {
		witness[i] = int(binary.BigEndian.Uint16(wb[2+2*i:]))
	}
	return round, value, witness, nil
}

func (p *rvaProcess) Start() []sched.Outgoing {
	p.started = true
	input := p.cfg.Inputs[p.self]
	if p.byz != nil {
		if p.byz.SilentFrom <= 0 {
			return nil
		}
		if p.byz.Input != nil {
			input = p.byz.Input
		}
		if p.byz.CorruptFrom <= 0 {
			// A "corrupt" round-0 message is just an arbitrary input:
			// round-0 values are unverifiable by design. Send garbage.
			input = garbageVec(p.cfg.D, p.self)
		}
	}
	return p.bs.Broadcast("rva-0", encodeRVA(0, input, nil))
}

func garbageVec(d, seed int) vec.V {
	v := vec.New(d)
	for i := range v {
		v[i] = float64((seed+1)*(i+3)%17) * 1e6
	}
	return v
}

// Step implements sched.SyncProcess. The scheduled engine delivers one
// message a Step; the deliveries it completes are verified together.
func (p *rvaProcess) Step(_ int, delivered []sched.Message) []sched.Outgoing {
	if p.byz != nil && p.byz.MuteRBC {
		return nil
	}
	var outs []sched.Outgoing
	for _, m := range delivered {
		outs = append(outs, p.bs.Handle(m)...)
	}
	for _, del := range p.bs.TakeDeliveries() {
		round, value, witness, err := decodeRVA(del.Value, p.cfg.D)
		if err != nil || round < 0 || round >= p.cfg.Rounds {
			continue
		}
		// The RBC instance id must match the claimed round, preventing a
		// Byzantine sender from replaying one broadcast as two rounds.
		if del.ID != fmt.Sprintf("rva-%d", round) {
			continue
		}
		p.pending = append(p.pending, rvaMsg{sender: del.Sender, round: round, value: value, witness: witness})
	}
	outs = append(outs, p.drain()...)
	return outs
}

// drain repeatedly verifies pending messages and advances rounds until a
// fixpoint.
func (p *rvaProcess) drain() []sched.Outgoing {
	var outs []sched.Outgoing
	for {
		progress := false
		// Verification pass.
		var still []rvaMsg
		for _, msg := range p.pending {
			switch p.tryVerify(msg) {
			case verifyOK:
				if p.verified[msg.round] == nil {
					p.verified[msg.round] = make(map[int]vec.V)
				}
				if _, dup := p.verified[msg.round][msg.sender]; !dup {
					p.verified[msg.round][msg.sender] = msg.value
					progress = true
				}
			case verifyWait:
				still = append(still, msg)
			case verifyReject:
				// dropped
			}
		}
		p.pending = still
		// Advancement pass.
		if o, adv := p.tryAdvance(); adv {
			outs = append(outs, o...)
			progress = true
		}
		if !progress {
			return outs
		}
	}
}

type verifyStatus int

const (
	verifyOK verifyStatus = iota
	verifyWait
	verifyReject
)

// tryVerify checks one claimed (sender, round, value, witness) message.
// Round-0 messages carry inputs and are accepted as-is. A round-t message
// (t >= 1) is verified iff the witness is a valid multiset of at least
// n-f distinct senders whose round-(t-1) values we have verified, and the
// value equals the deterministic choice function applied to exactly those
// values. Verification may need to wait for the witnesses' own messages.
func (p *rvaProcess) tryVerify(m rvaMsg) verifyStatus {
	if m.value.Dim() != p.cfg.D {
		return verifyReject
	}
	if m.round == 0 {
		return verifyOK
	}
	if len(m.witness) < witnessQuorum(p.cfg.N, p.cfg.F) || hasDupInts(m.witness) {
		return verifyReject
	}
	prev := p.verified[m.round-1]
	vals := make([]vec.V, 0, len(m.witness))
	for _, w := range m.witness {
		if w < 0 || w >= p.cfg.N {
			return verifyReject
		}
		v, ok := prev[w]
		if !ok {
			return verifyWait // the witness message may still arrive
		}
		vals = append(vals, v)
	}
	expect, _, ok := p.choose(m.round, m.witness, vals)
	if !ok || !expect.Equal(m.value) {
		return verifyReject
	}
	return verifyOK
}

// choose is the deterministic H function (Definition 12): at round 1 it
// selects a point of the relaxed (or exact) intersection over the
// collected round-0 values; at later rounds it averages. Witness ids must
// be pre-sorted by the caller for cache canonicity.
func (p *rvaProcess) choose(round int, witness []int, vals []vec.V) (vec.V, float64, bool) {
	key := fmt.Sprintf("%d|%v", round, witness)
	if e, ok := p.memo.m[key]; ok {
		return e.val, e.delta, e.ok
	}
	var out vec.V
	var delta float64
	ok := true
	if round == 1 {
		set := vec.NewSet(vals...)
		if p.cfg.Mode == ModeExact {
			pt, found := relax.GammaPoint(set, p.cfg.F)
			if !found {
				ok = false
			} else {
				out = pt
			}
		} else { // the norm is 1, 2 or +Inf, validated up front
			r := minimax.DeltaStarP(set, p.cfg.F, p.cfg.norm())
			out, delta = r.Point, r.Delta
		}
	} else {
		out = vec.Mean(vals)
	}
	p.memo.m[key] = memoEntry{val: out, delta: delta, ok: ok}
	return out, delta, ok
}

// tryAdvance broadcasts the next round (or decides) once n-f verified
// values of the current round are available.
func (p *rvaProcess) tryAdvance() ([]sched.Outgoing, bool) {
	if p.decided != nil || p.advanced[p.myRound] {
		return nil, false
	}
	cur := p.verified[p.myRound]
	if len(cur) < witnessQuorum(p.cfg.N, p.cfg.F) {
		return nil, false
	}
	// Canonical witness: all currently verified senders, ascending.
	witness := make([]int, 0, len(cur))
	for s := range cur {
		witness = append(witness, s)
	}
	sort.Ints(witness)
	vals := make([]vec.V, len(witness))
	for i, w := range witness {
		vals[i] = cur[w]
	}
	next := p.myRound + 1
	val, delta, ok := p.choose(next, witness, vals)
	if !ok {
		// Gamma empty in ModeExact: cannot advance (n below the bound).
		return nil, false
	}
	p.advanced[p.myRound] = true
	if next == 1 {
		p.delta = delta
	}
	if next >= p.cfg.Rounds {
		p.decided = val
		return nil, true
	}
	p.myRound = next
	if p.byz != nil && (next >= p.byz.SilentFrom) {
		return nil, true
	}
	if p.byz != nil && next >= p.byz.CorruptFrom {
		bad := val.Clone()
		bad[0] += 1e9
		return p.bs.Broadcast(fmt.Sprintf("rva-%d", next), encodeRVA(next, bad, witness)), true
	}
	return p.bs.Broadcast(fmt.Sprintf("rva-%d", next), encodeRVA(next, val, witness)), true
}

// Done is always false: processes keep serving the reliable-broadcast
// layer for their peers even after deciding; the engine terminates when
// the message queue drains.
func (p *rvaProcess) Done() bool { return false }

func hasDupInts(xs []int) bool {
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// RunAsyncBVC runs the asynchronous approximate consensus algorithm
// (Relaxed Verified Averaging in ModeRelaxed, the exact-validity
// averaging baseline in ModeExact) on the simulation. The context is
// polled once per message delivery, so cancellation interrupts a run
// mid-round.
func RunAsyncBVC(ctx context.Context, cfg *AsyncConfig) (*AsyncResult, error) {
	return RunAsync(ctx, transport.Plane{}, cfg)
}

// RunAsync is RunAsyncBVC on a chosen plane. Delivery is cfg.Schedule's
// (FIFO if nil), which only the simulation makes: a real plane refuses
// the run with transport.ErrUnsupported.
func RunAsync(ctx context.Context, plane transport.Plane, cfg *AsyncConfig) (*AsyncResult, error) {
	if err := validateAsync(cfg); err != nil {
		return nil, err
	}
	if err := sched.Canceled(ctx); err != nil {
		return nil, err
	}
	schedule := cfg.Schedule
	if schedule == nil {
		schedule = sched.FIFOSchedule{}
	}
	memo := &chooseMemo{m: make(map[string]memoEntry)}
	run, err := transport.RunCluster(ctx, plane, cfg.N, schedule, cfg.Faults, cfg.Trace, func(i int) (*rvaProcess, error) {
		return &rvaProcess{
			cfg:      cfg,
			self:     i,
			bs:       broadcast.NewBrachaState(cfg.N, cfg.F, i),
			byz:      cfg.Byzantine[i],
			memo:     memo,
			verified: map[int]map[int]vec.V{},
			advanced: map[int]bool{},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AsyncResult{
		Outputs:  make([]vec.V, cfg.N),
		Delta:    make([]float64, cfg.N),
		Steps:    run.Steps,
		Messages: run.Messages,
		Faults:   run.Faults,
	}
	for i, rp := range run.Machines {
		res.Outputs[i] = rp.decided
		res.Delta[i] = rp.delta
	}
	// Convergence trace: per round, the spread of the union of values
	// verified by honest processes (RBC makes these consistent, so the
	// union is well-defined).
	for r := 0; r < cfg.Rounds; r++ {
		bysender := map[int]vec.V{}
		for i, rp := range run.Machines {
			if _, bad := cfg.Byzantine[i]; bad {
				continue
			}
			for s, v := range rp.verified[r] {
				bysender[s] = v
			}
		}
		if len(bysender) == 0 {
			break
		}
		// Iterate in sorted sender order: the pairwise max below is
		// order-insensitive, but a deterministic vals layout keeps the
		// whole path replay-stable (and bvclint:maporder clean).
		senders := make([]int, 0, len(bysender))
		for s := range bysender {
			senders = append(senders, s)
		}
		sort.Ints(senders)
		vals := make([]vec.V, 0, len(senders))
		for _, s := range senders {
			vals = append(vals, bysender[s])
		}
		spread := 0.0
		for a := 0; a < len(vals); a++ {
			for b := a + 1; b < len(vals); b++ {
				if d := vals[a].Sub(vals[b]).NormP(math.Inf(1)); d > spread {
					spread = d
				}
			}
		}
		res.RoundSpread = append(res.RoundSpread, spread)
	}
	asyncRuns.Inc()
	runsTotal.Inc()
	roundsTotal.Add(int64(len(res.RoundSpread)))
	messagesTotal.Add(int64(res.Messages))
	return res, nil
}

// maxWireField is the largest value encodeRVA's uint16 fields carry: a
// broadcast's round (0..Rounds-1), a witness's length and its ids.
const maxWireField = math.MaxUint16

func validateAsync(cfg *AsyncConfig) error {
	if cfg.N < 2 {
		return fmt.Errorf("%w: n must be >= 2, got %d", ErrTooFewProcesses, cfg.N)
	}
	if cfg.N > maxWireField {
		return fmt.Errorf("%w: n=%d, the rva wire addresses at most %d processes", ErrBadInputs, cfg.N, maxWireField)
	}
	if len(cfg.Inputs) != cfg.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrBadInputs, len(cfg.Inputs), cfg.N)
	}
	if len(cfg.Byzantine) > cfg.F {
		return fmt.Errorf("%w: %d Byzantine with f=%d", ErrTooManyFaults, len(cfg.Byzantine), cfg.F)
	}
	if cfg.N < minProcessesRBC(cfg.F) {
		return fmt.Errorf("%w: reliable broadcast requires n >= 3f+1 (n=%d, f=%d)", ErrTooFewProcesses, cfg.N, cfg.F)
	}
	if cfg.Rounds < 1 || cfg.Rounds > maxWireField+1 {
		return fmt.Errorf("%w: got %d (the rva wire numbers at most %d rounds)", ErrBadRounds, cfg.Rounds, maxWireField+1)
	}
	if n := cfg.norm(); n != 1 && n != 2 && !math.IsInf(n, 1) {
		return fmt.Errorf("%w: NormP must be 1, 2 or +Inf, got %v", ErrBadNorm, n)
	}
	if cfg.Mode != ModeExact {
		if err := checkNormFaults(cfg.F, cfg.norm()); err != nil {
			return err
		}
	}
	for i, v := range cfg.Inputs {
		if v.Dim() != cfg.D {
			return fmt.Errorf("%w: input %d dimension %d != %d", ErrBadDimension, i, v.Dim(), cfg.D)
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrBadFaults, err)
		}
	}
	return nil
}

// norm returns the configured round-0 norm, defaulting to 2.
func (c *AsyncConfig) norm() float64 {
	if c.NormP == 0 {
		return 2
	}
	return c.NormP
}

// HonestIDs returns the non-Byzantine ids of an async config.
func (c *AsyncConfig) HonestIDs() []int {
	var ids []int
	for i := 0; i < c.N; i++ {
		if _, bad := c.Byzantine[i]; !bad {
			ids = append(ids, i)
		}
	}
	return ids
}

// NonFaultyInputs returns the multiset of honest inputs.
func (c *AsyncConfig) NonFaultyInputs() *vec.Set {
	s := vec.NewSet()
	for _, i := range c.HonestIDs() {
		s.Append(c.Inputs[i])
	}
	return s
}
