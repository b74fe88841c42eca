package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
)

// span is one timed call into a layer, recorded from outside the layer
// by a decorator or around a direct call. Spans of one chunk form a
// tree through Parent; Op is the id of the operation in flight when
// the span opened.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans written to the trace file; totals and
// self times are always computed over every span.
const maxKeptSpans = 20000

// recorder keeps the spans of the chunk in flight in memory. flush
// folds them into per-name totals and self times and starts over, so
// memory stays bounded by one chunk while every span is accounted.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	base  int // id of spans[0]
	spans []span
	kept  []span

	total map[string]int64 // summed durations by name
	self  map[string]int64 // summed self times by name
	count map[string]int64
}

func newRecorder() *recorder {
	return &recorder{
		t0:    time.Now(),
		total: make(map[string]int64),
		self:  make(map[string]int64),
		count: make(map[string]int64),
	}
}

// open starts a span and returns its id.
func (r *recorder) open(name string, op, parent int) int {
	r.mu.Lock()
	id := r.base + len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(r.t0))})
	r.mu.Unlock()
	return id
}

// close ends span id and returns its duration.
func (r *recorder) close(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	s := &r.spans[id-r.base]
	s.End = now
	d := s.End - s.Start
	r.mu.Unlock()
	return time.Duration(d)
}

// rename gives an open or closed span of the current chunk its final
// name, for decorators that only know what a call was once it returned.
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id-r.base].Name = name
	r.mu.Unlock()
}

// flush accounts the buffered spans and clears the buffer. Call it
// between chunks, when no span is open.
func (r *recorder) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfNs := selfTimes(r.spans, r.base)
	for i, s := range r.spans {
		r.total[s.Name] += s.End - s.Start
		r.self[s.Name] += selfNs[i]
		r.count[s.Name]++
	}
	if room := maxKeptSpans - len(r.kept); room > 0 {
		if room > len(r.spans) {
			room = len(r.spans)
		}
		r.kept = append(r.kept, r.spans[:room]...)
	}
	r.base += len(r.spans)
	r.spans = r.spans[:0]
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children (the union of the children's
// intervals, clipped to the parent, so overlapping children — trials
// on two workers, nodes on four goroutines — are not subtracted
// twice). base is the id of spans[0].
func selfTimes(spans []span, base int) []int64 {
	out := make([]int64, len(spans))
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		if s.Parent >= base {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Parent != sb.Parent {
			return sa.Parent < sb.Parent
		}
		return sa.Start < sb.Start
	})
	for i := 0; i < len(order); {
		p := spans[order[i]].Parent
		parent := spans[p-base]
		var cover, lo, hi int64
		open := false
		for ; i < len(order) && spans[order[i]].Parent == p; i++ {
			c := spans[order[i]]
			s, e := max(c.Start, parent.Start), min(c.End, parent.End)
			if e <= s {
				continue
			}
			switch {
			case !open:
				lo, hi, open = s, e, true
			case s <= hi:
				hi = max(hi, e)
			default:
				cover += hi - lo
				lo, hi = s, e
			}
		}
		if open {
			cover += hi - lo
		}
		out[p-base] -= cover
	}
	return out
}

// write dumps the kept spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range r.kept {
		if err := enc.Encode(&r.kept[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file %s: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return nil
}

// tracer is the state of one traced pass: the span recorder, named
// accumulators the runners add counts and replayed times to, and the
// inputs sampled for the end-of-pass kernel and codec replays.
type tracer struct {
	rec *recorder

	mu  sync.Mutex
	acc map[string]float64

	kernel []kernelCall
	frames []transport.Frame
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), acc: make(map[string]float64)}
}

// add accumulates v under name; safe from concurrent trials and nodes.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.acc[name] += v
	t.mu.Unlock()
}

// tracedProc decorates a sched.SyncProcess with one span per
// Start/Step call. With a capture hook the call is wrapped in an outer
// "trace.hook" span, so the hook's own cost is charged to tracing and
// not to the engine that drives the process.
type tracedProc struct {
	inner  sched.SyncProcess
	rec    *recorder
	name   string
	parent *int       // the engine's (or RunSync's) span, set before the run starts
	op     func() int // id of the op in flight
	// capture, when set, observes each call's inbox and sends and may
	// return a more specific span name for the call ("" keeps name).
	capture func(delivered []sched.Message, outs []sched.Outgoing) string
}

func (p *tracedProc) call(delivered []sched.Message, fn func() []sched.Outgoing) []sched.Outgoing {
	op, parent := p.op(), *p.parent
	if p.capture == nil {
		id := p.rec.open(p.name, op, parent)
		outs := fn()
		p.rec.close(id)
		return outs
	}
	hook := p.rec.open("trace.hook", op, parent)
	id := p.rec.open(p.name, op, hook)
	outs := fn()
	p.rec.close(id)
	if name := p.capture(delivered, outs); name != "" {
		p.rec.rename(id, name)
	}
	p.rec.close(hook)
	return outs
}

// Start implements sched.SyncProcess.
func (p *tracedProc) Start() []sched.Outgoing {
	return p.call(nil, p.inner.Start)
}

// Step implements sched.SyncProcess.
func (p *tracedProc) Step(round int, delivered []sched.Message) []sched.Outgoing {
	return p.call(delivered, func() []sched.Outgoing { return p.inner.Step(round, delivered) })
}

// Done implements sched.SyncProcess.
func (p *tracedProc) Done() bool { return p.inner.Done() }

// maxFrameSample bounds the frames kept per endpoint for the codec
// replay.
const maxFrameSample = 2048

// tracedTransport decorates a transport.Transport with one span per
// Send and Recv call; it is driven by one transport.RunSync goroutine.
type tracedTransport struct {
	transport.Transport
	rec    *recorder
	parent *int
	op     func() int
	sample []transport.Frame
}

// Send implements transport.Transport.
func (t *tracedTransport) Send(f transport.Frame) error {
	id := t.rec.open("transport.send", t.op(), *t.parent)
	err := t.Transport.Send(f)
	t.rec.close(id)
	return err
}

// Recv implements transport.Transport. The span covers the wait for
// the next frame, which under RunSync's end-of-round barrier is mostly
// waiting for the slowest peer.
func (t *tracedTransport) Recv(ctx context.Context) (transport.Frame, error) {
	id := t.rec.open("transport.recv", t.op(), *t.parent)
	f, err := t.Transport.Recv(ctx)
	t.rec.close(id)
	if err == nil && len(t.sample) < maxFrameSample {
		t.sample = append(t.sample, f)
	}
	return f, err
}
