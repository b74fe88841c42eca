package transport

// The distributed lockstep runner: RunSync drives ONE sched.SyncProcess
// over a Transport while reproducing the delivery semantics of
// sched.SyncEngine exactly — frames sent in round r are delivered at
// Step(r+1), each round's inbox is put in sched.SortInbox order, and
// termination is checked at the top of each round. Because the
// processes are deterministic state machines, a cluster of RunSync
// nodes decides bit-for-bit the same values as the single-engine
// simulation of the same Spec (pinned by the facade's parity tests).
//
// Rounds are synchronized with end-of-round (EOR) control frames: after
// a node has sent every data frame destined for delivery round d it
// sends EOR(d) to all peers, carrying its Done flag at that point. A
// node enters Step(r) only after EOR(r) arrived from every peer, so no
// data frame for round r can still be in flight (links are ordered per
// peer). A peer can run at most one round ahead — its EOR(r+1) waits on
// our EOR(r) — so early frames are buffered by round, never dropped.
// Duplicate EOR frames (at-least-once TCP redelivery) are counted once.

import (
	"context"
	"fmt"

	"relaxedbvc/internal/sched"
)

// eorTag is the end-of-round barrier control frame; Data is one byte,
// the sender's Done flag after the round that produced the frames.
const eorTag = "\x00eor"

// SyncNodeStats reports one node's traffic through a RunSync run.
type SyncNodeStats struct {
	// Rounds is the number of lockstep rounds executed — equal on every
	// node of the cluster and to sched.SyncEngine.RoundsRun for the
	// same processes.
	Rounds int
	// Delivered counts protocol messages delivered to the local process.
	Delivered int
	// FramesSent counts data frames (not EOR barriers) sent.
	FramesSent int
}

// RunSync drives proc over t in lockstep until every node in the
// cluster reports Done or maxRounds (<=0 means the sched default 1<<16)
// elapse. traceFn, when non-nil, observes every delivered protocol
// message (the counterpart of sched.SyncEngine.TraceFn).
func RunSync(ctx context.Context, t Transport, proc sched.SyncProcess, maxRounds int, traceFn func(sched.Message)) (*SyncNodeStats, error) {
	if maxRounds <= 0 {
		maxRounds = 1 << 16
	}
	self, n := t.Self(), t.N()
	stats := &SyncNodeStats{}

	sendOuts := func(outs []sched.Outgoing, deliverRound int) error {
		for _, o := range outs {
			if o.To == self {
				return fmt.Errorf("%w: node %d addressed itself", ErrBadPeer, self)
			}
			f := Frame{To: o.To, Round: deliverRound, Tag: o.Tag, Data: o.Data}
			if o.To == sched.Broadcast {
				f.To = Broadcast
				stats.FramesSent += n - 1
			} else {
				stats.FramesSent++
			}
			if err := t.Send(f); err != nil {
				return fmt.Errorf("node %d round %d send: %w", self, deliverRound, err)
			}
		}
		return nil
	}
	sendEOR := func(round int, done bool) error {
		flag := byte(0)
		if done {
			flag = 1
		}
		if err := t.Send(Frame{To: Broadcast, Round: round, Tag: eorTag, Data: []byte{flag}}); err != nil {
			return fmt.Errorf("node %d round %d barrier: %w", self, round, err)
		}
		return nil
	}

	// Buffers for frames that arrive ahead of the round being collected.
	pending := make(map[int][]sched.Message)
	eorSeen := make(map[int]map[int]bool) // round -> peer -> seen
	eorDone := make(map[int]map[int]bool) // round -> peer -> done flag
	noteEOR := func(round, from int, done bool) {
		if eorSeen[round] == nil {
			eorSeen[round] = make(map[int]bool)
			eorDone[round] = make(map[int]bool)
		}
		if eorSeen[round][from] {
			return // duplicate barrier frame (reconnect redelivery)
		}
		eorSeen[round][from] = true
		eorDone[round][from] = done
	}
	// collect blocks until EOR(round) arrived from all n-1 peers, then
	// returns the round's sorted inbox and whether every peer is done.
	collect := func(round int) ([]sched.Message, bool, error) {
		for len(eorSeen[round]) < n-1 {
			f, err := t.Recv(ctx)
			if err != nil {
				return nil, false, fmt.Errorf("node %d round %d: %w", self, round, err)
			}
			switch {
			case f.Tag == eorTag:
				if f.Round >= round {
					noteEOR(f.Round, f.From, len(f.Data) == 1 && f.Data[0] == 1)
				}
			case len(f.Tag) > 0 && f.Tag[0] == 0:
				// Unknown control frame from a newer peer: ignore.
			case f.Round >= round:
				pending[f.Round] = append(pending[f.Round], sched.Message{
					From: f.From, To: self, Tag: f.Tag, Data: f.Data, SentRound: f.Round - 1,
				})
			default:
				// A data frame for an already-collected round can only be a
				// reconnect duplicate; the protocols tolerate (and the sim's
				// fault layer exercises) duplication, but dropping it keeps
				// the inbox bit-identical to the fault-free simulation.
			}
		}
		inbox := pending[round]
		delete(pending, round)
		sched.SortInbox(inbox)
		allDone := true
		for peer := 0; peer < n; peer++ {
			if peer != self && !eorDone[round][peer] {
				allDone = false
				break
			}
		}
		delete(eorSeen, round)
		delete(eorDone, round)
		return inbox, allDone, nil
	}

	// Start: the frames it emits are delivered in round 0.
	if err := sendOuts(proc.Start(), 0); err != nil {
		return stats, err
	}
	if err := sendEOR(0, proc.Done()); err != nil {
		return stats, err
	}
	for round := 0; ; round++ {
		inbox, peersDone, err := collect(round)
		if err != nil {
			return stats, err
		}
		// Top-of-round termination check, as in sched.SyncEngine: the
		// EOR(round) flags reflect every peer's state after Step(round-1),
		// the same global state the engine's allDone scan observes. Every
		// node evaluates the same predicate, so all exit at the same round.
		if proc.Done() && peersDone {
			stats.Rounds = round
			return stats, nil
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w: node %d round limit %d exceeded", ErrTransport, self, maxRounds)
		}
		var outs []sched.Outgoing
		if !proc.Done() {
			stats.Delivered += len(inbox)
			if traceFn != nil {
				for _, m := range inbox {
					traceFn(m)
				}
			}
			outs = proc.Step(round, inbox)
		}
		if err := sendOuts(outs, round+1); err != nil {
			return stats, err
		}
		if err := sendEOR(round+1, proc.Done()); err != nil {
			return stats, err
		}
		stats.Rounds = round + 1
	}
}
