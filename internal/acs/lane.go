package acs

import "sync"

// Lane runs sealed epochs' decision kernels off the protocol path: a
// FIFO of kernel jobs drained by one goroutine, which exists only while
// jobs are queued. Nodes that share a lane have their kernels run one
// after another in seal order, so the identical calls of one epoch hit
// the kernel caches exactly as inline calls would. Use NewLane.
type Lane struct {
	mu       sync.Mutex
	finished sync.Cond // broadcast after every job
	jobs     []kernelJob
	head     int    // jobs[head:] are waiting
	queued   uint64 // jobs pushed
	done     uint64 // jobs finished
	running  bool
	panicked any // the first value a job panicked with
}

// kernelJob computes one sealed epoch's Output and Delta in place.
type kernelJob struct {
	dec *EpochDecision
	f   int
	p   float64
}

// NewLane returns an idle lane.
func NewLane() *Lane {
	l := &Lane{}
	l.finished.L = &l.mu
	return l
}

// push queues a job.
func (l *Lane) push(j kernelJob) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs = append(l.jobs, j)
	l.queued++
	if !l.running {
		l.running = true
		go l.drain()
	}
}

func (l *Lane) drain() {
	l.mu.Lock()
	for l.head < len(l.jobs) {
		j := l.jobs[l.head]
		l.jobs[l.head] = kernelJob{}
		l.head++
		l.mu.Unlock()
		r := j.run()
		l.mu.Lock()
		if r != nil && l.panicked == nil {
			l.panicked = r
		}
		l.done++
		l.finished.Broadcast()
	}
	l.jobs, l.head, l.running = l.jobs[:0], 0, false
	l.mu.Unlock()
}

// run computes the decision and returns what it panicked with, if
// anything.
func (j kernelJob) run() (r any) {
	defer func() { r = recover() }()
	j.dec.Output, j.dec.Delta = decideEpoch(j.dec.Values, j.f, j.p)
	return nil
}

// Wait blocks until every job queued before the call has finished, then
// re-raises, on the caller's goroutine, the first panic any job of the
// lane raised.
func (l *Lane) Wait() {
	l.mu.Lock()
	for queued := l.queued; l.done < queued; {
		l.finished.Wait()
	}
	r := l.panicked
	l.mu.Unlock()
	if r != nil {
		panic(r)
	}
}
