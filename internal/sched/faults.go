package sched

// Seeded link-fault injection for both engines. A LinkFaults policy
// describes per-link drop probability, bounded delay, duplication and
// timed partitions. Every fault decision is a pure function of
// (policy seed, fault kind, link, message sequence number, attempt), so
// a run is bit-for-bit replayable from its seed regardless of delivery
// order — the rolls are hash-based, not drawn from a shared stream.
//
// The paper's model assumes reliable channels. Fault patterns that keep
// eventual delivery (drops recovered by retransmission, bounded delays,
// duplication, partitions that heal) stay *within* the model: protocols
// must still meet their bounds. Patterns that permanently lose a message
// (retransmission budget exhausted, a partition that never heals, any
// drop/delay under the lockstep synchronous engine) are *out of model*:
// the engines complete deterministically and return an error wrapping
// ErrDeliveryViolated instead of hanging or emitting wrong outputs
// silently.

import (
	"errors"
	"fmt"

	"relaxedbvc/internal/metrics"
)

// Fault-layer observability (cumulative across all runs in the process).
// Per-run values are returned on the engines' FaultStats.
var (
	faultDropsTotal   = metrics.DefaultCounter("sched_fault_drops_total")
	faultDupsTotal    = metrics.DefaultCounter("sched_fault_duplicates_total")
	faultRetransTotal = metrics.DefaultCounter("sched_fault_retransmits_total")
	faultHealsTotal   = metrics.DefaultCounter("sched_fault_partition_heals_total")
	faultLostTotal    = metrics.DefaultCounter("sched_fault_lost_total")
	faultDelaysTotal  = metrics.DefaultCounter("sched_fault_delays_total")
)

// ErrDeliveryViolated reports that an injected fault pattern broke the
// delivery model the protocols assume (a message was permanently lost,
// or lockstep synchrony was violated). The run still completes
// deterministically; its outputs must not be trusted.
var ErrDeliveryViolated = errors.New("sched: fault pattern violated the delivery model")

// Link identifies one directed channel.
type Link struct {
	From, To int
}

// LinkProfile is the fault intensity of one link (or the global default).
type LinkProfile struct {
	// DropProb is the per-delivery-attempt drop probability in [0, 1].
	DropProb float64
	// DupProb is the per-send duplication probability in [0, 1]; a
	// duplicate is an extra independent copy of the message.
	DupProb float64
	// DelayMin/DelayMax bound the extra delivery delay, drawn uniformly
	// from {DelayMin, ..., DelayMax} virtual time units (async: delivery
	// steps; sync: rounds). 0 <= DelayMin <= DelayMax.
	DelayMin, DelayMax int
}

// Partition is a timed network split: while active, messages between the
// Group and its complement are held. Start/End are in virtual time units
// (async delivery steps, sync rounds); the window is [Start, End).
// End < 0 means the partition never heals.
type Partition struct {
	Start, End int
	Group      []int
}

func (p *Partition) activeAt(t int) bool {
	return t >= p.Start && (p.End < 0 || t < p.End)
}

func (p *Partition) separates(from, to int) bool {
	inFrom, inTo := false, false
	for _, g := range p.Group {
		if g == from {
			inFrom = true
		}
		if g == to {
			inTo = true
		}
	}
	return inFrom != inTo
}

// LinkFaults is a seeded, replayable fault-injection policy. The zero
// value (or a nil pointer on the engine) injects nothing. The embedded
// LinkProfile is the default for every link; Links overrides it per
// directed channel.
type LinkFaults struct {
	// Seed drives every fault decision; the same seed replays the same
	// fault pattern exactly.
	Seed int64
	LinkProfile
	Links      map[Link]LinkProfile
	Partitions []Partition
	// RetransmitTimeout is how many virtual time units the async engine
	// waits before retransmitting a dropped copy (default 4).
	RetransmitTimeout int
	// MaxAttempts bounds delivery attempts per message copy in the async
	// engine (default 16; 1 disables retransmission). A copy that
	// exhausts its attempts with no other copy delivered or in flight is
	// permanently lost — an out-of-model pattern.
	MaxAttempts int
}

// ErrBadPolicy is the sentinel every Validate failure wraps, so
// callers classify invalid fault policies with errors.Is instead of
// string matching (the consensus layer re-wraps it under its own
// ErrBadFaults, keeping both sentinels matchable on one chain).
var ErrBadPolicy = errors.New("sched: invalid fault policy")

// Validate checks the policy's parameters.
func (lf *LinkFaults) Validate() error {
	check := func(name string, p LinkProfile) error {
		if p.DropProb < 0 || p.DropProb > 1 {
			return fmt.Errorf("%w: %s DropProb %v outside [0,1]", ErrBadPolicy, name, p.DropProb)
		}
		if p.DupProb < 0 || p.DupProb > 1 {
			return fmt.Errorf("%w: %s DupProb %v outside [0,1]", ErrBadPolicy, name, p.DupProb)
		}
		if p.DelayMin < 0 || p.DelayMax < p.DelayMin {
			return fmt.Errorf("%w: %s delay bounds [%d,%d] invalid (need 0 <= min <= max)", ErrBadPolicy, name, p.DelayMin, p.DelayMax)
		}
		return nil
	}
	if err := check("default", lf.LinkProfile); err != nil {
		return err
	}
	for l, p := range lf.Links {
		if err := check(fmt.Sprintf("link %d->%d", l.From, l.To), p); err != nil {
			return err
		}
	}
	for i, p := range lf.Partitions {
		if p.Start < 0 {
			return fmt.Errorf("%w: partition %d Start %d negative", ErrBadPolicy, i, p.Start)
		}
		if p.End >= 0 && p.End <= p.Start {
			return fmt.Errorf("%w: partition %d window [%d,%d) empty", ErrBadPolicy, i, p.Start, p.End)
		}
	}
	if lf.RetransmitTimeout < 0 {
		return fmt.Errorf("%w: RetransmitTimeout %d negative", ErrBadPolicy, lf.RetransmitTimeout)
	}
	if lf.MaxAttempts < 0 {
		return fmt.Errorf("%w: MaxAttempts %d negative", ErrBadPolicy, lf.MaxAttempts)
	}
	return nil
}

func (lf *LinkFaults) maxAttempts() int {
	if lf.MaxAttempts <= 0 {
		return 16
	}
	return lf.MaxAttempts
}

func (lf *LinkFaults) retransmitTimeout() int {
	if lf.RetransmitTimeout <= 0 {
		return 4
	}
	return lf.RetransmitTimeout
}

// profile returns the effective fault profile of one directed link.
func (lf *LinkFaults) profile(from, to int) LinkProfile {
	if lf.Links != nil {
		if p, ok := lf.Links[Link{From: from, To: to}]; ok {
			return p
		}
	}
	return lf.LinkProfile
}

// Fault-roll kinds, folded into the hash so drop/dup/delay decisions on
// the same copy are independent.
const (
	rollDrop = 1 + iota
	rollDup
	rollDelay
)

// splitmix64 finalizer: a high-quality 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform sample in [0, 1) for one fault
// decision, independent of every other decision and of delivery order.
func (lf *LinkFaults) roll(kind, from, to, seq, attempt int) float64 {
	h := mix64(uint64(lf.Seed))
	for _, v := range [...]uint64{uint64(kind), uint64(from), uint64(to), uint64(seq), uint64(attempt)} {
		h = mix64(h ^ v)
	}
	return float64(h>>11) / (1 << 53)
}

// drops decides whether delivery attempt `attempt` of copy `seq` on the
// given link is dropped.
func (lf *LinkFaults) drops(from, to, seq, attempt int) bool {
	p := lf.profile(from, to).DropProb
	return p > 0 && lf.roll(rollDrop, from, to, seq, attempt) < p
}

// duplicates decides whether the send of copy `seq` spawns a duplicate.
func (lf *LinkFaults) duplicates(from, to, seq int) bool {
	p := lf.profile(from, to).DupProb
	return p > 0 && lf.roll(rollDup, from, to, seq, 0) < p
}

// delay returns the extra delivery delay of copy `seq` in virtual time
// units.
func (lf *LinkFaults) delay(from, to, seq int) int {
	p := lf.profile(from, to)
	if p.DelayMax <= 0 {
		return 0
	}
	span := p.DelayMax - p.DelayMin + 1
	return p.DelayMin + int(lf.roll(rollDelay, from, to, seq, 0)*float64(span))
}

// blockedAt reports whether any active partition separates the link at
// virtual time t.
func (lf *LinkFaults) blockedAt(from, to, t int) bool {
	for i := range lf.Partitions {
		p := &lf.Partitions[i]
		if p.activeAt(t) && p.separates(from, to) {
			return true
		}
	}
	return false
}

// clearFrom returns the earliest time >= t at which no active partition
// separates the link, or ok=false if the link never clears (some
// separating partition has End < 0 and no later window frees it).
func (lf *LinkFaults) clearFrom(from, to, t int) (int, bool) {
	// Each iteration jumps past the End of one blocking partition, so the
	// loop terminates within len(Partitions)+1 rounds.
	for iter := 0; iter <= len(lf.Partitions); iter++ {
		blocked := false
		for i := range lf.Partitions {
			p := &lf.Partitions[i]
			if p.activeAt(t) && p.separates(from, to) {
				if p.End < 0 {
					return 0, false
				}
				if p.End > t {
					t = p.End
				}
				blocked = true
			}
		}
		if !blocked {
			return t, true
		}
	}
	return t, true
}

// FaultStats counts injected fault events for one engine run.
type FaultStats struct {
	// Dropped counts delivery attempts the policy dropped.
	Dropped int
	// Duplicated counts extra copies spawned by duplication.
	Duplicated int
	// Retransmits counts dropped copies re-enqueued for another attempt.
	Retransmits int
	// PartitionHeals counts messages delivered after having been held by
	// a partition.
	PartitionHeals int
	// Delayed counts copies assigned a positive extra delay.
	Delayed int
	// Lost counts logical messages that became permanently undeliverable
	// (out of model).
	Lost int
}

// Add accumulates another run's counts (used when one consensus
// execution spans several engine runs, e.g. per-coordinate scalar runs).
func (s *FaultStats) Add(o FaultStats) {
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Retransmits += o.Retransmits
	s.PartitionHeals += o.PartitionHeals
	s.Delayed += o.Delayed
	s.Lost += o.Lost
}

// brokeLockstep reports whether the faults broke lockstep delivery:
// anything but duplication, which the processes absorb.
func (s FaultStats) brokeLockstep() bool {
	return s.Dropped > 0 || s.Delayed > 0 || s.PartitionHeals > 0 || s.Lost > 0
}

// publish adds the run's counts to the process-wide metrics registry.
func (s FaultStats) publish() {
	faultDropsTotal.Add(int64(s.Dropped))
	faultDupsTotal.Add(int64(s.Duplicated))
	faultRetransTotal.Add(int64(s.Retransmits))
	faultHealsTotal.Add(int64(s.PartitionHeals))
	faultLostTotal.Add(int64(s.Lost))
	faultDelaysTotal.Add(int64(s.Delayed))
}
