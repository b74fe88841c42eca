package acs

import (
	"math"
	"runtime"
	"sync"

	"relaxedbvc/internal/vec"
)

// Lane runs sealed epochs' decision kernels off the protocol path. The
// nodes of one run share a lane, and each of them seals the same epoch
// with the same agreed multiset, so the lane groups their jobs by epoch,
// bit-identical Values, f and p: each group's kernel runs once, and
// every decision waiting on it gets its own copy of the Output. Distinct
// groups — in practice, different epochs — run in seal order on up to
// GOMAXPROCS (read by NewLane) short-lived workers, which exist only
// while groups are waiting; a kernel itself stays sequential. Groups
// live in a ring indexed by epoch and are reused once their epoch leaves
// it, so a steady stream allocates no lane state. The kernel
// is a pure function of its inputs, so neither the grouping nor the
// overlap can move a bit of any decision. Use NewLane.
type Lane struct {
	kernel  func(values []vec.V, f int, p float64) (vec.V, float64)
	procs   int // GOMAXPROCS when the lane was made: the worker cap
	mu      sync.Mutex
	changed sync.Cond // broadcast when a group finishes or a worker exits
	// ring holds the groups of the last laneEpochs epochs sealed, epoch e
	// at e % laneEpochs, so that a node sealing late still finds its
	// epoch's group; free holds finished groups the ring let go of.
	ring     [laneEpochs]laneSlot
	free     []*kernelGroup
	pending  []*kernelGroup // groups waiting for a worker, in seal order
	head     int            // pending[head:] are waiting
	workers  int
	queued   uint64 // jobs pushed
	done     uint64 // jobs whose group finished
	panicked any    // the first value a kernel panicked with
}

// laneEpochs is how many epochs of groups a lane keeps. A node seals up
// to pipelineDepth epochs in one Step, when the oldest one that held
// the others back seals, and in steady lockstep two per Step, as many as
// it opens; local nodes of one run seal an epoch a few rounds apart at
// most, so two pipelines' worth covers them; a job older than that still
// decides, only without sharing a kernel run.
const laneEpochs = 2 * pipelineDepth

// laneSlot is the ring entry of one epoch: its groups, in push order.
type laneSlot struct {
	epoch  int // -1 while the slot is unused
	groups []*kernelGroup
}

// kernelGroup is one kernel run and the decisions that wait for it.
type kernelGroup struct {
	values   []vec.V
	f        int
	p        float64
	waiting  []*EpochDecision
	finished bool
	failed   bool // the kernel panicked: its decisions stay undecided
	out      vec.V
	delta    float64
}

// NewLane returns an idle lane.
func NewLane() *Lane { return newLane(decideEpoch) }

func newLane(kernel func([]vec.V, int, float64) (vec.V, float64)) *Lane {
	// runtime.GOMAXPROCS takes the scheduler's lock, which a call per
	// epoch contends with the worker goroutines' parking.
	l := &Lane{kernel: kernel, procs: runtime.GOMAXPROCS(0)}
	l.changed.L = &l.mu
	for i := range l.ring {
		l.ring[i].epoch = -1
	}
	return l
}

// push queues the kernel job of dec, a sealed decision whose Values are
// set: it joins the group of an identical job of the same epoch, which
// decides it at once if that group has finished, or opens a new group.
// A job for an epoch older than its ring slot's opens a group the ring
// does not keep.
func (l *Lane) push(dec *EpochDecision, f int, p float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queued++
	slot := &l.ring[dec.Epoch%laneEpochs]
	if slot.epoch == dec.Epoch {
		for _, g := range slot.groups {
			if g.f == f && math.Float64bits(g.p) == math.Float64bits(p) && sameValues(g.values, dec.Values) {
				if g.finished {
					g.decide(dec)
					l.done++
				} else {
					g.waiting = append(g.waiting, dec)
				}
				return
			}
		}
	}
	g := l.group(dec, f, p)
	if slot.epoch < dec.Epoch {
		for _, old := range slot.groups {
			if old.finished { // an unfinished one is still queued or running
				l.free = append(l.free, old)
			}
		}
		clear(slot.groups)
		slot.epoch, slot.groups = dec.Epoch, slot.groups[:0]
	}
	if slot.epoch == dec.Epoch {
		slot.groups = append(slot.groups, g)
	}
	l.pending = append(l.pending, g)
	if l.workers < l.procs {
		l.workers++
		go l.work()
	}
}

// group returns a new group for dec's job, a freed one if any.
func (l *Lane) group(dec *EpochDecision, f int, p float64) *kernelGroup {
	k := len(l.free)
	if k == 0 {
		return &kernelGroup{values: dec.Values, f: f, p: p, waiting: []*EpochDecision{dec}}
	}
	g := l.free[k-1]
	l.free = l.free[:k-1]
	*g = kernelGroup{values: dec.Values, f: f, p: p, waiting: append(g.waiting[:0], dec)}
	return g
}

// work runs waiting groups until none is left.
func (l *Lane) work() {
	l.mu.Lock()
	for l.head < len(l.pending) {
		g := l.pending[l.head]
		l.pending[l.head] = nil
		l.head++
		l.mu.Unlock()
		r := g.run(l.kernel)
		l.mu.Lock()
		if r != nil && l.panicked == nil {
			l.panicked = r
		}
		g.finished, g.failed = true, r != nil
		for _, dec := range g.waiting {
			g.decide(dec)
		}
		l.done += uint64(len(g.waiting))
		clear(g.waiting)
		g.waiting = g.waiting[:0]
		l.changed.Broadcast()
	}
	l.pending, l.head = l.pending[:0], 0
	l.workers--
	l.changed.Broadcast()
	l.mu.Unlock()
}

// run computes the group's Output and Delta and returns what the kernel
// panicked with, if anything.
func (g *kernelGroup) run(kernel func([]vec.V, int, float64) (vec.V, float64)) (r any) {
	defer func() { r = recover() }()
	g.out, g.delta = kernel(g.values, g.f, g.p)
	return nil
}

// decide gives dec its own copy of the finished group's Output.
func (g *kernelGroup) decide(dec *EpochDecision) {
	if !g.failed {
		dec.Output, dec.Delta = g.out.Clone(), g.delta
	}
}

// sameValues reports whether a and b are the same multiset in the same
// order, bit for bit.
func sameValues(a, b []vec.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if len(v) != len(b[i]) {
			return false
		}
		for j, x := range v {
			if math.Float64bits(x) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// Wait blocks until every job queued before the call has been decided
// and every worker has exited, then re-raises, on the caller's
// goroutine, the first panic any kernel of the lane raised.
func (l *Lane) Wait() {
	l.mu.Lock()
	for queued := l.queued; l.done < queued || l.workers > 0; {
		l.changed.Wait()
	}
	r := l.panicked
	l.mu.Unlock()
	if r != nil {
		panic(r)
	}
}
