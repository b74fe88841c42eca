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
// while groups are waiting; a kernel itself stays sequential. The kernel
// is a pure function of its inputs, so neither the grouping nor the
// overlap can move a bit of any decision. Use NewLane.
type Lane struct {
	kernel  func(values []vec.V, f int, p float64) (vec.V, float64)
	procs   int // GOMAXPROCS when the lane was made: the worker cap
	mu      sync.Mutex
	changed sync.Cond // broadcast when a group finishes or a worker exits
	// groups holds the groups of the last laneEpochs epochs sealed, so
	// that a node sealing late still finds its epoch's group; lo is the
	// lowest epoch it may hold.
	groups   map[int][]*kernelGroup
	lo       int
	pending  []*kernelGroup // groups waiting for a worker, in seal order
	head     int            // pending[head:] are waiting
	workers  int
	queued   uint64 // jobs pushed
	done     uint64 // jobs whose group finished
	panicked any    // the first value a kernel panicked with
}

// laneEpochs is how many epochs of groups a lane keeps. Local nodes of
// one run seal an epoch at most a round apart (Node.prune keeps the
// same slack), so a job older than that still decides, only without
// sharing a kernel run.
const laneEpochs = 4

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
	l := &Lane{kernel: kernel, procs: runtime.GOMAXPROCS(0), groups: make(map[int][]*kernelGroup)}
	l.changed.L = &l.mu
	return l
}

// push queues the kernel job of dec, a sealed decision whose Values are
// set: it joins the group of an identical job of the same epoch, which
// decides it at once if that group has finished, or opens a new group.
func (l *Lane) push(dec *EpochDecision, f int, p float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queued++
	for _, g := range l.groups[dec.Epoch] {
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
	g := &kernelGroup{values: dec.Values, f: f, p: p, waiting: []*EpochDecision{dec}}
	if dec.Epoch >= l.lo {
		l.groups[dec.Epoch] = append(l.groups[dec.Epoch], g)
		for ; l.lo <= dec.Epoch-laneEpochs; l.lo++ {
			delete(l.groups, l.lo)
		}
	}
	l.pending = append(l.pending, g)
	if l.workers < l.procs {
		l.workers++
		go l.work()
	}
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
		g.waiting = nil
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
