package transport

// The distributed lockstep runner: RunSync drives ONE sched.SyncProcess
// over a Transport while reproducing the delivery semantics of
// sched.SyncEngine exactly — messages sent in round r are delivered at
// Step(r+1), each round's inbox is put in sched.SortInbox order, and
// termination is checked at the top of each round. Because the
// processes are deterministic state machines, a cluster of RunSync
// nodes decides bit-for-bit the same values as the single-engine
// simulation of the same Spec (pinned by the facade's parity tests).
//
// A synchronous-round protocol sends one logical message to each peer
// per round, and that is what goes on the wire: for delivery round d a
// node sends every peer ONE round bundle (bundle.go) holding that
// peer's messages in send order — a sched.Broadcast outgoing is
// appended to every peer's bundle — and, on its last chunk, the barrier
// bit with the sender's Done flag. A node enters Step(r) only after the
// last chunk of round r arrived from every peer; links are ordered per
// peer, so nothing for round r can still be in flight.
//
// A peer can run at most one round ahead — its bundle for round r+2
// waits on our barrier for r+1, which we send after collecting r — so
// the receiver keeps exactly two slots: the round being collected and
// the next. What falls outside that window is dropped: a bundle for a
// past round can only be a reconnect duplicate, and one for a round
// further ahead cannot come from a correct peer and must not grow our
// memory. Inside the window chunks are deduplicated exactly, by (round,
// sender, chunk index): per-link order means chunk k can only be new if
// it is the one expected next, so a lower index is a redelivery and is
// dropped, while a higher one, a chunk after the barrier, or a message
// section that does not parse fails the run with ErrBadFrame naming the
// peer and round. Frames that are not round bundles (plain data frames,
// control frames of a newer peer) are ignored.

import (
	"context"
	"fmt"

	"relaxedbvc/internal/sched"
)

// SyncNodeStats reports one node's traffic through a RunSync run.
type SyncNodeStats struct {
	// Rounds is the number of lockstep rounds executed — equal on every
	// node of the cluster and to sched.SyncEngine.RoundsRun for the
	// same processes.
	Rounds int
	// Delivered counts protocol messages delivered to the local process.
	Delivered int
	// FramesSent counts round-bundle frames sent: one per peer per
	// round, plus one per extra chunk of an oversized round.
	FramesSent int
}

// roundSlot collects one delivery round: the inbox so far and, per
// peer, how far that peer's bundle has come.
type roundSlot struct {
	inbox    []sched.Message
	peers    []peerProgress
	barriers int // peers whose last chunk arrived
}

type peerProgress struct {
	next          uint32 // chunk index expected next
	barrier, done bool   // last chunk seen, and its Done flag
}

func (s *roundSlot) reset() {
	s.inbox = s.inbox[:0]
	clear(s.peers)
	s.barriers = 0
}

// syncRunner is the state of one RunSync call.
type syncRunner struct {
	t         Transport
	self, n   int
	stats     *SyncNodeStats
	cur, next *roundSlot // the round being collected and the one after
	// reuse says the transport copies a frame's Data on Send
	// (dataCopier), so every round bundle is built in bundle, one buffer
	// kept across rounds. Otherwise the frame is delivered as is, and each
	// bundle gets a buffer of its own.
	reuse  bool
	bundle []byte
}

// sendRound sends every peer its bundle for deliverRound: the messages
// of outs addressed to it, in order, then the barrier carrying done.
func (r *syncRunner) sendRound(outs []sched.Outgoing, deliverRound int, done bool) error {
	for i := range outs {
		if to := outs[i].To; to != sched.Broadcast {
			if err := checkPeer(to, r.self, r.n); err != nil {
				return fmt.Errorf("node %d round %d send: %w", r.self, deliverRound, err)
			}
		}
	}
	for peer := 0; peer < r.n; peer++ {
		if peer == r.self {
			continue
		}
		mine := func(o *sched.Outgoing) bool { return o.To == peer || o.To == sched.Broadcast }
		for from, chunk := 0, uint32(0); ; chunk++ {
			// Size the chunk, then fill a buffer of exactly that size, or
			// the reused one once it is large enough.
			size, end := bundleHeaderLen, from
			for ; end < len(outs); end++ {
				if o := &outs[end]; mine(o) {
					l := tagDataLen(o.Tag, o.Data)
					if size > bundleHeaderLen && size+l > bundleCap {
						break
					}
					size += l
				}
			}
			last := end == len(outs)
			buf := r.bundle[:0]
			if cap(buf) < size {
				buf = make([]byte, 0, max(size, 2*cap(buf)))
			}
			data := appendBundleHeader(buf, bundleHeader{done: done, last: last, chunk: chunk})
			for i := from; i < end; i++ {
				if o := &outs[i]; mine(o) {
					data = appendTagData(data, o.Tag, o.Data)
				}
			}
			r.stats.FramesSent++
			if err := r.t.Send(Frame{To: peer, Round: deliverRound, Tag: roundTag, Data: data}); err != nil {
				return fmt.Errorf("node %d round %d send: %w", r.self, deliverRound, err)
			}
			if r.reuse {
				r.bundle = data
			}
			if last {
				break
			}
			from = end
		}
	}
	return nil
}

// collect blocks until the last chunk of round arrived from all n-1
// peers, then returns the round's sorted inbox and whether every peer
// is done.
func (r *syncRunner) collect(ctx context.Context, round int) ([]sched.Message, bool, error) {
	// Recv returns a queued frame without looking at ctx, so a node
	// whose peers' bundles are always there first would run on past it.
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("node %d round %d: %w: %w", r.self, round, ErrTransport, err)
	}
	for r.cur.barriers < r.n-1 {
		f, err := r.t.Recv(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("node %d round %d: %w", r.self, round, err)
		}
		if f.Tag != roundTag || f.From < 0 || f.From >= r.n || f.From == r.self {
			continue
		}
		var slot *roundSlot
		switch f.Round {
		case round:
			slot = r.cur
		case round + 1:
			slot = r.next
		default:
			continue // outside the two-round window: see the file comment
		}
		bad := func(err error) error {
			return fmt.Errorf("node %d: bundle from peer %d for round %d: %w", r.self, f.From, f.Round, err)
		}
		h, msgs, err := parseBundleHeader(f.Data)
		if err != nil {
			return nil, false, bad(err)
		}
		p := &slot.peers[f.From]
		switch {
		case h.chunk < p.next:
			continue // redelivered after a reconnect
		case h.chunk > p.next:
			return nil, false, bad(fmt.Errorf("%w: chunk %d where %d was due", ErrBadFrame, h.chunk, p.next))
		case p.barrier:
			return nil, false, bad(fmt.Errorf("%w: chunk %d after the round's last chunk", ErrBadFrame, h.chunk))
		}
		if slot.inbox, err = appendBundleMsgs(slot.inbox, msgs, f.From, r.self, f.Round-1); err != nil {
			return nil, false, bad(err)
		}
		p.next++
		if h.last {
			p.barrier, p.done = true, h.done
			slot.barriers++
		}
	}
	sched.SortInbox(r.cur.inbox)
	allDone := true
	for peer := range r.cur.peers {
		if peer != r.self && !r.cur.peers[peer].done {
			allDone = false
			break
		}
	}
	return r.cur.inbox, allDone, nil
}

// RunSync drives proc over t in lockstep until every node in the
// cluster reports Done or maxRounds (<=0 means the sched default 1<<16)
// elapse. traceFn, when non-nil, observes every delivered protocol
// message (the counterpart of sched.SyncEngine.TraceFn).
func RunSync(ctx context.Context, t Transport, proc sched.SyncProcess, maxRounds int, traceFn func(sched.Message)) (*SyncNodeStats, error) {
	if maxRounds <= 0 {
		maxRounds = 1 << 16
	}
	n := t.N()
	r := &syncRunner{
		t: t, self: t.Self(), n: n, stats: &SyncNodeStats{},
		cur:  &roundSlot{peers: make([]peerProgress, n)},
		next: &roundSlot{peers: make([]peerProgress, n)},
	}
	_, r.reuse = t.(dataCopier)
	stats := r.stats

	// Start: what it emits is delivered in round 0.
	if err := r.sendRound(proc.Start(), 0, proc.Done()); err != nil {
		return stats, err
	}
	for round := 0; ; round++ {
		inbox, peersDone, err := r.collect(ctx, round)
		if err != nil {
			return stats, err
		}
		// Top-of-round termination check, as in sched.SyncEngine: the
		// round's barrier flags reflect every peer's state after
		// Step(round-1), the same global state the engine's allDone scan
		// observes. Every node evaluates the same predicate, so all exit
		// at the same round.
		if proc.Done() && peersDone {
			stats.Rounds = round
			return stats, nil
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w: node %d round limit %d exceeded", ErrTransport, r.self, maxRounds)
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
		if err := r.sendRound(outs, round+1, proc.Done()); err != nil {
			return stats, err
		}
		r.cur.reset()
		r.cur, r.next = r.next, r.cur
		stats.Rounds = round + 1
	}
}
