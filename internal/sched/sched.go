// Package sched provides the simulated message-passing substrate the
// consensus protocols run on: a lockstep synchronous round engine and an
// asynchronous event-queue engine with pluggable delivery schedules
// (seeded-random, FIFO, or adversarial LIFO), both driving the one
// SyncProcess machine interface.
//
// The network is the complete graph with reliable channels, matching the
// paper's model: every process can send to every other process, messages
// are never lost or corrupted in transit, and in the asynchronous engine
// delivery order and delay are controlled by the (possibly adversarial)
// schedule, but every sent message is eventually delivered.
//
// A seeded LinkFaults policy (see faults.go) optionally stresses that
// assumption with drops, bounded delays, duplication and timed
// partitions. The async engine retransmits dropped copies so
// within-model patterns preserve eventual delivery; patterns that break
// the model surface as errors wrapping ErrDeliveryViolated.
//
// Processes — honest and Byzantine alike — are deterministic state
// machines driven by the engine, and every fault decision is a pure
// function of the policy seed, which makes every simulation replayable
// from its seeds.
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"relaxedbvc/internal/metrics"
)

// Engine observability, published into the default metrics registry.
// Round/step wall times land in fixed-bucket histograms so sweeps can be
// profiled without tracing; message counts are cumulative across all
// engine runs in the process (per-run counts stay on the engine structs
// and the consensus results).
var (
	roundSeconds  = metrics.DefaultHistogram("consensus_round_seconds", metrics.TimeBuckets())
	roundMessages = metrics.DefaultHistogram("consensus_round_messages", metrics.CountBuckets())
	msgsDelivered = metrics.DefaultCounter("sched_messages_delivered_total")
	asyncSteps    = metrics.DefaultCounter("sched_async_steps_total")
)

// Message is a point-to-point message in flight or delivered.
type Message struct {
	From, To int
	Tag      string
	Data     []byte
	// SentRound is the synchronous round in which the message was sent
	// (0-based), or the asynchronous step index.
	SentRound int
}

// Outgoing is a send request from a process. To == Broadcast sends to all
// other processes (not self).
type Outgoing struct {
	To   int
	Tag  string
	Data []byte
}

// Broadcast is the special destination meaning "all other processes".
const Broadcast = -1

// reaches reports whether o, sent by process from, has a copy for to.
func (o *Outgoing) reaches(from, to int) bool {
	return o.To == to || o.To == Broadcast && to != from
}

// SyncProcess is a deterministic state machine, the one machine interface
// of every protocol. SyncEngine drives it in lockstep rounds: Start is
// called once before round 0; Step is called each round with the
// messages delivered in that round (the messages sent in the previous
// round, or by Start for round 0). AsyncEngine calls Step once per
// delivered message instead.
type SyncProcess interface {
	// Start returns the messages to send in round 0.
	Start() []Outgoing
	// Step handles the messages delivered at the beginning of the given
	// round and returns messages to send (delivered next round).
	// delivered is in SortInbox order and valid only for the duration of
	// the call (a Message's Data may be kept): the engine reuses its
	// backing array next round. The driver reads the returned slice
	// until the process's next Step.
	Step(round int, delivered []Message) []Outgoing
	// Done reports whether the process has terminated (it then receives
	// no further Step calls and sends nothing).
	Done() bool
}

// SyncEngine runs SyncProcesses in lockstep.
type SyncEngine struct {
	procs     []SyncProcess
	MaxRounds int
	// Faults optionally injects seeded link faults. The lockstep model
	// only tolerates duplication (processes already deduplicate); any
	// injected drop, delay or partition hold breaks synchrony, so the run
	// completes and then returns an error wrapping ErrDeliveryViolated.
	Faults *LinkFaults
	// Stats
	RoundsRun  int
	Messages   int
	FaultStats FaultStats
	TraceFn    func(Message) // optional message tap
	// StopFn, when set, is polled once per round; a non-nil return aborts
	// the run with that error (used for context cancellation).
	StopFn func() error
}

// ErrCanceled reports that a run's context ended before the run did.
var ErrCanceled = errors.New("sched: run canceled")

// Canceled returns nil while ctx is live and otherwise an error matching
// both ErrCanceled and the context's own error. It is the StopFn of every
// context-driven SyncEngine run.
func Canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// NewSyncEngine builds a synchronous engine over the given processes
// (index = process id).
func NewSyncEngine(procs []SyncProcess) *SyncEngine {
	return &SyncEngine{procs: procs, MaxRounds: 1 << 16}
}

// Run drives rounds until every process is Done or MaxRounds elapse
// (or, after injected faults broke delivery, the network goes quiet).
// It returns the number of rounds executed and an error on round
// exhaustion, or one wrapping ErrDeliveryViolated if injected faults
// broke the lockstep delivery model. Each process keeps one inbox for
// the whole run, refilled every round, so once the inboxes have grown a
// round allocates nothing but the copies a fault policy delays.
func (e *SyncEngine) Run() (int, error) {
	n := len(e.procs)
	lf := e.Faults
	var stats FaultStats
	if lf != nil {
		if err := lf.Validate(); err != nil {
			return 0, err
		}
	}
	finish := func(rounds int, err error) (int, error) {
		e.RoundsRun = rounds
		e.FaultStats = stats
		stats.publish()
		if stats.brokeLockstep() {
			violation := fmt.Errorf("%w: lockstep synchrony broken (%d dropped, %d delayed, %d partition-held, %d lost)",
				ErrDeliveryViolated, stats.Dropped, stats.Delayed, stats.PartitionHeals, stats.Lost)
			if err != nil {
				// Keep both chains matchable: the fault violation usually
				// caused the engine-level failure (quiescence, round limit).
				return rounds, fmt.Errorf("%w; %w", err, violation)
			}
			return rounds, violation
		}
		return rounds, err
	}

	// sent[id] holds process id's sends of the round just stepped; they
	// become messages only when the next round's inboxes are filled.
	// Under a fault policy, arrivals records per logical message, in
	// routing order, how many copies arrive on time (0..2); copies a
	// policy delays past the next round wait in future[r]. inbox[id] is
	// process id's inbox, its backing array reused every round.
	sent := make([][]Outgoing, n)
	inbox := make([][]Message, n)
	var arrivals []uint8
	future := make(map[int][]Message)
	seq := 0
	// route decides the fate of one logical message sent in round
	// deliverRound-1 and returns how many copies arrive on time.
	route := func(from, to int, o *Outgoing, deliverRound int) uint8 {
		s := seq
		seq++
		copies, onTime := 1, uint8(0)
		if lf.duplicates(from, to, s) {
			copies = 2
			stats.Duplicated++
		}
		for c := 0; c < copies; c++ {
			rid := s
			if c == 1 {
				rid = -s - 1 // distinct roll identity for the duplicate copy
			}
			if lf.drops(from, to, rid, 0) {
				stats.Dropped++
				continue
			}
			at := deliverRound
			if d := lf.delay(from, to, rid); d > 0 {
				stats.Delayed++
				at += d
			}
			if lf.blockedAt(from, to, at) {
				t, ok := lf.clearFrom(from, to, at)
				if !ok {
					stats.Lost++
					continue
				}
				at = t
				stats.PartitionHeals++
			}
			if at == deliverRound {
				onTime++
			} else {
				future[at] = append(future[at], Message{From: from, To: to, Tag: o.Tag, Data: o.Data, SentRound: deliverRound - 1})
			}
		}
		return onTime
	}
	// post records process id's sends of one round. It validates every
	// destination, so a bad one panics at send time, and under a fault
	// policy routes each logical message in routing order: sends in the
	// order the process returned them, a Broadcast's recipients ascending.
	post := func(id int, outs []Outgoing, deliverRound int) {
		sent[id] = outs
		for i := range outs {
			o := &outs[i]
			if o.To != Broadcast && (o.To < 0 || o.To >= n) {
				panic(fmt.Sprintf("sched: send to invalid process %d", o.To))
			}
			if lf == nil {
				continue
			}
			for to := 0; to < n; to++ {
				if o.reaches(id, to) {
					arrivals = append(arrivals, route(id, to, o, deliverRound))
				}
			}
		}
	}
	// deliver refills the inboxes in one pass over what arrives this
	// round: messages delayed into it first, then the previous round's
	// sends sender by sender in routing order. A counting pass first sizes
	// every inbox that is too small to exactly what it receives.
	need := make([]int, n)
	deliver := func(round int) {
		clear(need)
		for _, m := range future[round] {
			need[m.To]++
		}
		if lf == nil {
			bcast := 0
			for from, outs := range sent {
				for i := range outs {
					if to := outs[i].To; to != Broadcast {
						need[to]++
					} else {
						bcast++
						need[from]-- // a broadcast skips its sender
					}
				}
			}
			for to := range need {
				need[to] += bcast
			}
		} else {
			k := 0
			for from, outs := range sent {
				for i := range outs {
					for to := 0; to < n; to++ {
						if outs[i].reaches(from, to) {
							need[to] += int(arrivals[k])
							k++
						}
					}
				}
			}
		}
		for to := range inbox {
			if cap(inbox[to]) < need[to] {
				inbox[to] = make([]Message, 0, need[to])
			}
			inbox[to] = inbox[to][:0]
		}
		place := func(m Message) {
			if e.TraceFn != nil {
				e.TraceFn(m)
			}
			inbox[m.To] = append(inbox[m.To], m)
		}
		for _, m := range future[round] {
			place(m)
		}
		delete(future, round)
		k := 0
		for from, outs := range sent {
			for i := range outs {
				o := &outs[i]
				for to := 0; to < n; to++ {
					if !o.reaches(from, to) {
						continue
					}
					copies := uint8(1)
					if lf != nil {
						copies = arrivals[k]
						k++
					}
					for ; copies > 0; copies-- {
						place(Message{From: from, To: to, Tag: o.Tag, Data: o.Data, SentRound: round - 1})
					}
				}
			}
		}
		arrivals = arrivals[:0]
		total := 0
		for to := range inbox {
			total += len(inbox[to])
			SortInbox(inbox[to])
		}
		roundMessages.Observe(float64(total))
		msgsDelivered.Add(int64(total))
		e.Messages += total
	}

	for id, p := range e.procs {
		post(id, p.Start(), 0)
	}
	quiescent := 0
	for round := 0; round < e.MaxRounds; round++ {
		if e.StopFn != nil {
			if err := e.StopFn(); err != nil {
				return finish(round, err)
			}
		}
		allDone := true
		for _, p := range e.procs {
			if !p.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			return finish(round, nil)
		}
		//bvclint:allow nodeterminism -- metrics-only: wall time feeds the round-latency histogram, never delivery order
		roundStart := time.Now()
		deliver(round)
		anyActivity := false
		for id, p := range e.procs {
			var outs []Outgoing
			if !p.Done() {
				outs = p.Step(round, inbox[id])
			}
			if len(outs) > 0 {
				anyActivity = true
			}
			post(id, outs, round+1)
		}
		if !anyActivity && len(future) == 0 && stats.brokeLockstep() {
			// Quiescent after faults broke delivery: whoever waits on a lost
			// message waits forever. Allow two empty rounds for countdowns,
			// then report the deadlock. A fault-free run is never cut short
			// (Dolev-Strong is silent between relaying and deciding).
			quiescent++
			if quiescent >= 3 {
				stillRunning := 0
				for _, p := range e.procs {
					if !p.Done() {
						stillRunning++
					}
				}
				if stillRunning > 0 {
					return finish(round+1, fmt.Errorf("sched: quiescent with %d processes not done", stillRunning))
				}
			}
		} else {
			quiescent = 0
		}
		//bvclint:allow nodeterminism -- metrics-only: observation of the round timing started above
		roundSeconds.Observe(time.Since(roundStart).Seconds())
	}
	return finish(e.MaxRounds, fmt.Errorf("sched: round limit %d exceeded", e.MaxRounds))
}

// SortInbox puts one round's inbox into the lockstep delivery order:
// ascending (From, Tag), copies of one (From, Tag) in arrival order. It
// is the single definition of that order, shared by SyncEngine and
// transport.RunSync. An inbox filled sender by sender usually arrives
// ordered, so the sort runs only when a linear check says it must, and
// then allocates nothing.
func SortInbox(inbox []Message) {
	for i := 1; i < len(inbox); i++ {
		if compareInbox(inbox[i], inbox[i-1]) < 0 {
			slices.SortStableFunc(inbox, compareInbox)
			return
		}
	}
}

// compareInbox orders messages by (From, Tag).
func compareInbox(a, b Message) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return strings.Compare(a.Tag, b.Tag)
}

// Schedule selects which in-flight message to deliver next.
type Schedule interface {
	// Pick returns an index into queue (len >= 1).
	Pick(queue []Message) int
}

// RandomSchedule delivers a uniformly random queued message (seeded).
type RandomSchedule struct{ Rng *rand.Rand }

// Pick implements Schedule.
func (s *RandomSchedule) Pick(queue []Message) int { return s.Rng.Intn(len(queue)) }

// FIFOSchedule delivers the oldest queued message.
type FIFOSchedule struct{}

// Pick implements Schedule.
func (FIFOSchedule) Pick(queue []Message) int { return 0 }

// LIFOSchedule delivers the newest queued message first — a simple
// adversarial schedule that maximizes staleness of early messages while
// retaining eventual delivery (the queue drains once no new sends occur).
type LIFOSchedule struct{}

// Pick implements Schedule.
func (LIFOSchedule) Pick(queue []Message) int { return len(queue) - 1 }

// DelayTargetSchedule starves messages from the given processes as long
// as any other message is queued, modelling an adversary that makes a set
// of processes arbitrarily slow (they are still eventually delivered).
type DelayTargetSchedule struct {
	Slow map[int]bool
}

// Pick implements Schedule.
func (s *DelayTargetSchedule) Pick(queue []Message) int {
	for i, m := range queue {
		if !s.Slow[m.From] {
			return i
		}
	}
	return 0
}

// AsyncEngine runs the same SyncProcess machines under a Schedule, one
// delivery at a time: each delivery is a Step whose inbox holds exactly
// that message (round is the delivery step), from one buffer the engine
// reuses. A done process absorbs messages silently.
type AsyncEngine struct {
	procs    []SyncProcess
	schedule Schedule
	MaxSteps int
	// Faults optionally injects seeded link faults. Dropped copies are
	// retransmitted after Faults.RetransmitTimeout virtual time units, up
	// to Faults.MaxAttempts attempts; delays and healed partitions defer
	// delivery on the engine's virtual clock. A message that becomes
	// permanently undeliverable makes Run return an error wrapping
	// ErrDeliveryViolated after the run completes.
	Faults *LinkFaults
	// Stats
	StepsRun   int
	Messages   int
	FaultStats FaultStats
	TraceFn    func(Message)
	// StopFn, when set, is polled once per delivery step; a non-nil return
	// aborts the run with that error (used for context cancellation).
	StopFn func() error
}

// NewAsyncEngine builds an asynchronous engine. If schedule is nil, FIFO
// is used.
func NewAsyncEngine(procs []SyncProcess, schedule Schedule) *AsyncEngine {
	if schedule == nil {
		schedule = FIFOSchedule{}
	}
	return &AsyncEngine{procs: procs, schedule: schedule, MaxSteps: 1 << 22}
}

// qmeta is the fault-layer bookkeeping of one queued message copy.
type qmeta struct {
	readyAt int // virtual time at which the copy becomes deliverable
	attempt int // delivery attempts already consumed by this copy
	seq     int // logical message id (shared by duplicate copies)
	rollID  int // per-copy fault-roll identity
	held    bool
}

// queue holds the in-flight copies in send order: msgs[head:], with
// their fault metadata in meta[head:] when the run has a fault policy.
// Taking the first or last copy is O(1); taking one in the middle
// shifts the shorter side, so the order of the rest never changes.
type queue struct {
	msgs     []Message
	meta     []qmeta
	head     int
	withMeta bool
}

func (q *queue) live() []Message   { return q.msgs[q.head:] }
func (q *queue) liveMeta() []qmeta { return q.meta[q.head:] }

func (q *queue) push(m Message, qm qmeta) {
	if len(q.msgs) == cap(q.msgs) && 2*q.head >= len(q.msgs) {
		// At least half the array is taken copies: slide the live ones
		// down instead of growing it, which moves each copy O(1) times.
		k := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[k:])
		q.msgs = q.msgs[:k]
		if q.withMeta {
			q.meta = q.meta[:copy(q.meta, q.meta[q.head:])]
		}
		q.head = 0
	}
	q.msgs = append(q.msgs, m)
	if q.withMeta {
		q.meta = append(q.meta, qm)
	}
}

// take removes and returns the i-th live copy.
func (q *queue) take(i int) (Message, qmeta) {
	at := q.head + i
	m := q.msgs[at]
	var qm qmeta
	if q.withMeta {
		qm = q.meta[at]
	}
	if n := len(q.msgs) - q.head; i < n-1-i {
		copy(q.msgs[q.head+1:at+1], q.msgs[q.head:at])
		q.msgs[q.head] = Message{}
		if q.withMeta {
			copy(q.meta[q.head+1:at+1], q.meta[q.head:at])
		}
		q.head++
	} else {
		copy(q.msgs[at:], q.msgs[at+1:])
		q.msgs[len(q.msgs)-1] = Message{}
		q.msgs = q.msgs[:len(q.msgs)-1]
		if q.withMeta {
			q.meta = q.meta[:copy(q.meta[at:], q.meta[at+1:])+at]
		}
	}
	return m, qm
}

// Run delivers messages one at a time until the queue drains or all
// processes are done. Returns steps executed; error if the step limit is
// hit, or one wrapping ErrDeliveryViolated if injected faults made a
// message permanently undeliverable.
func (e *AsyncEngine) Run() (int, error) {
	n := len(e.procs)
	lf := e.Faults
	var stats FaultStats
	if lf != nil {
		if err := lf.Validate(); err != nil {
			return 0, err
		}
	}
	q := queue{withMeta: lf != nil}
	// The virtual clock advances one unit per delivery attempt; readyAt,
	// delays, retransmission timeouts and partition windows are measured
	// on it. With lf == nil the clock is irrelevant: every queued message
	// is deliverable, exactly the pre-fault-layer semantics.
	now := 0
	step := 0
	seq := 0
	maxAttempts, rto := 0, 0
	var deliveredSeq map[int]bool
	var copiesLeft map[int]int
	if lf != nil {
		maxAttempts = lf.maxAttempts()
		rto = lf.retransmitTimeout()
		deliveredSeq = make(map[int]bool)
		copiesLeft = make(map[int]int)
	}
	// A DelayTargetSchedule picks the first copy from a process it does
	// not starve. Without faults, the queue between two picks is the last
	// one less the picked copy plus new sends at its end, so the starved
	// prefix one pick scanned is still the queue's prefix at the next:
	// starved counts it, and only what lies past it is scanned.
	slow, _ := e.schedule.(*DelayTargetSchedule)
	starved := 0
	push := func(m Message, qm qmeta) {
		q.push(m, qm)
		if lf != nil {
			copiesLeft[qm.seq]++
		}
	}
	remove := func(i int) (Message, qmeta) {
		m, qm := q.take(i)
		if lf != nil {
			copiesLeft[qm.seq]--
		}
		return m, qm
	}
	enqueue := func(m Message, ready0 int) {
		if lf == nil {
			push(m, qmeta{})
			return
		}
		s := seq
		seq++
		copies := 1
		if lf.duplicates(m.From, m.To, s) {
			copies = 2
			stats.Duplicated++
		}
		for c := 0; c < copies; c++ {
			rid := s
			if c == 1 {
				rid = -s - 1 // distinct roll identity for the duplicate copy
			}
			at := ready0
			if d := lf.delay(m.From, m.To, rid); d > 0 {
				stats.Delayed++
				at += d
			}
			push(m, qmeta{readyAt: at, seq: s, rollID: rid})
		}
	}
	expand := func(from int, outs []Outgoing, ready0 int) {
		for _, o := range outs {
			if o.To == Broadcast {
				for to := 0; to < n; to++ {
					if to != from {
						enqueue(Message{From: from, To: to, Tag: o.Tag, Data: o.Data, SentRound: step}, ready0)
					}
				}
			} else {
				if o.To < 0 || o.To >= n {
					panic(fmt.Sprintf("sched: send to invalid process %d", o.To))
				}
				enqueue(Message{From: from, To: o.To, Tag: o.Tag, Data: o.Data, SentRound: step}, ready0)
			}
		}
	}
	finish := func(steps int, err error) (int, error) {
		e.StepsRun = steps
		e.FaultStats = stats
		stats.publish()
		if stats.Lost > 0 {
			violation := fmt.Errorf("%w: %d message(s) permanently undeliverable (retransmission budget %d exhausted or unhealed partition)",
				ErrDeliveryViolated, stats.Lost, maxAttempts)
			if err != nil {
				return steps, fmt.Errorf("%w; %w", err, violation)
			}
			return steps, violation
		}
		return steps, err
	}
	// markLost drains the queue when nothing in it can ever be delivered.
	markLost := func() {
		meta := q.liveMeta()
		for i := range meta {
			copiesLeft[meta[i].seq]--
		}
		counted := make(map[int]bool)
		for i := range meta {
			s := meta[i].seq
			if !deliveredSeq[s] && copiesLeft[s] == 0 && !counted[s] {
				counted[s] = true
				stats.Lost++
			}
		}
		q = queue{withMeta: true}
	}

	for id, p := range e.procs {
		expand(id, p.Start(), 0)
	}
	inbox := make([]Message, 1)
deliver:
	for ; step < e.MaxSteps; step++ {
		msgs := q.live()
		if len(msgs) == 0 {
			break
		}
		if e.StopFn != nil {
			if err := e.StopFn(); err != nil {
				return finish(step, err)
			}
		}
		allDone := true
		for _, p := range e.procs {
			if !p.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		var pickIdx int
		switch {
		case lf == nil && slow != nil:
			for starved < len(msgs) && slow.Slow[msgs[starved].From] {
				starved++
			}
			if starved < len(msgs) {
				pickIdx = starved
			} else {
				starved-- // the whole queue is starved: take its oldest copy
			}
		case lf == nil:
			pickIdx = e.schedule.Pick(msgs)
		default:
			meta := q.liveMeta()
			buildView := func() ([]Message, []int) {
				var view []Message
				var idx []int
				for i := range msgs {
					if meta[i].readyAt > now {
						continue
					}
					if len(lf.Partitions) > 0 && lf.blockedAt(msgs[i].From, msgs[i].To, now) {
						meta[i].held = true
						continue
					}
					view = append(view, msgs[i])
					idx = append(idx, i)
				}
				return view, idx
			}
			view, idx := buildView()
			if len(view) == 0 {
				// Nothing deliverable now: fast-forward the clock to the
				// earliest future delivery time. If no queued copy can ever
				// clear, everything left is permanently lost.
				next, any := 0, false
				for i := range msgs {
					t := meta[i].readyAt
					if t < now {
						t = now
					}
					if len(lf.Partitions) > 0 {
						ct, ok := lf.clearFrom(msgs[i].From, msgs[i].To, t)
						if !ok {
							continue
						}
						t = ct
					}
					if !any || t < next {
						next, any = t, true
					}
				}
				if !any {
					markLost()
					break deliver
				}
				now = next
				view, idx = buildView()
			}
			pickIdx = idx[e.schedule.Pick(view)]
		}
		m, qm := remove(pickIdx)
		if lf != nil && lf.drops(m.From, m.To, qm.rollID, qm.attempt) {
			stats.Dropped++
			if qm.attempt+1 < maxAttempts {
				stats.Retransmits++
				push(m, qmeta{readyAt: now + 1 + rto, attempt: qm.attempt + 1, seq: qm.seq, rollID: qm.rollID, held: qm.held})
			} else if !deliveredSeq[qm.seq] && copiesLeft[qm.seq] == 0 {
				stats.Lost++
			}
			now++
			continue // a dropped attempt still consumes a step
		}
		if lf != nil {
			deliveredSeq[qm.seq] = true
			if qm.held {
				stats.PartitionHeals++
			}
		}
		e.Messages++
		asyncSteps.Inc()
		msgsDelivered.Inc()
		if e.TraceFn != nil {
			e.TraceFn(m)
		}
		p := e.procs[m.To]
		if p.Done() {
			now++
			continue
		}
		inbox[0] = m
		expand(m.To, p.Step(step, inbox), now+1)
		now++
	}
	if step >= e.MaxSteps {
		return finish(step, fmt.Errorf("sched: step limit %d exceeded", e.MaxSteps))
	}
	return finish(step, nil)
}
