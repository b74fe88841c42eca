package tverberg

import (
	"sync"
	"sync/atomic"

	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/par"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// Scan observability: candidates handed to the intersection test and
// chunks dispatched to the kernel workers. With multiple workers the
// candidate count may undercount the sequential scan's (a chunk stops
// at its first hit), so these are throughput gauges, not parity data.
var (
	scanCandidates = metrics.DefaultCounter("tverberg_scan_candidates_total")
	scanChunks     = metrics.DefaultCounter("tverberg_scan_chunks_total")
)

// candidatesPerWorker sizes the enumeration chunks of the parallel
// partition scan: the restricted-growth enumerator fills a chunk of
// candidatesPerWorker*workers candidates, the workers evaluate it, and
// the scan stops at the first chunk containing a feasible partition.
// Large enough to amortize the goroutine hand-off over many LP solves,
// small enough that the tail chunk wastes little work after a hit.
const candidatesPerWorker = 32

// searchPartition scans the set partitions of {0..n-1} into parts
// blocks, in restricted-growth (sequential-scan) order, for the first
// candidate whose blocks have intersecting hulls under it. The scan is
// chunked over the kernel workers with lowest-index-wins semantics:
// within a chunk every candidate below the best hit so far is
// evaluated, so the returned partition is exactly the sequential scan's
// first hit for any worker count, bit for bit.
func searchPartition(y *vec.Set, f int, it relax.Intersector) (blocks [][]int, point vec.V, ok bool) {
	n := y.Len()
	parts := f + 1
	if parts > n {
		return nil, nil, false
	}
	if parts > 255 {
		// The uint8 block encoding would overflow; unreachable in
		// practice — the enumeration is super-exponential in n long
		// before this.
		panic("tverberg: more than 255 blocks")
	}
	sc := newPartitionScan(y, parts, par.KernelWorkers(), it)
	defer sc.release()
	found := false
	vec.Partitions(n, parts, func(bl [][]int) bool {
		sc.push(bl)
		if sc.count == sc.chunk {
			if sc.flush() {
				found = true
				return false
			}
		}
		return true
	})
	if !found && sc.count > 0 {
		found = sc.flush()
	}
	if !found {
		return nil, nil, false
	}
	return sc.bestBlocks, sc.bestPoint, true
}

// partitionScan is the state of one chunked first-hit scan.
type partitionScan struct {
	y              *vec.Set
	n, parts       int
	workers, chunk int
	it             relax.Intersector
	assign         []uint8 // chunk rows of n block assignments
	count          int     // candidates buffered in assign
	scratch        []*scanScratch
	mu             sync.Mutex
	bestBlocks     [][]int
	bestPoint      vec.V
}

// scanScratch is one worker's reusable decode state: block index
// buffers and Set headers rebuilt in place per candidate (the points
// themselves are shared with y, never copied), plus the LP scratch.
type scanScratch struct {
	blocks [][]int
	sets   []*vec.Set
	isc    *relax.IntersectScratch
}

func newPartitionScan(y *vec.Set, parts, workers int, it relax.Intersector) *partitionScan {
	n := y.Len()
	sc := &partitionScan{
		y: y, n: n, parts: parts,
		workers: workers, chunk: candidatesPerWorker * workers,
		it:      it,
		scratch: make([]*scanScratch, workers),
	}
	sc.assign = make([]uint8, sc.chunk*n)
	for w := range sc.scratch {
		ws := &scanScratch{
			blocks: make([][]int, parts),
			sets:   make([]*vec.Set, parts),
			isc:    relax.GetIntersectScratch(),
		}
		for b := 0; b < parts; b++ {
			ws.blocks[b] = make([]int, 0, n)
			ws.sets[b] = new(vec.Set)
		}
		sc.scratch[w] = ws
	}
	return sc
}

func (sc *partitionScan) release() {
	for _, ws := range sc.scratch {
		ws.isc.Release()
	}
}

// push encodes the candidate (whose slices the enumerator reuses) into
// the assignment buffer.
func (sc *partitionScan) push(bl [][]int) {
	row := sc.assign[sc.count*sc.n : (sc.count+1)*sc.n]
	for b, idxs := range bl {
		for _, e := range idxs {
			row[e] = uint8(b)
		}
	}
	sc.count++
}

// eval decodes candidate i into ws and runs the intersection test.
func (sc *partitionScan) eval(ws *scanScratch, i int) (vec.V, bool) {
	row := sc.assign[i*sc.n : (i+1)*sc.n]
	for b := range ws.blocks {
		ws.blocks[b] = ws.blocks[b][:0]
	}
	for e, b := range row {
		ws.blocks[b] = append(ws.blocks[b], e)
	}
	for b, idxs := range ws.blocks {
		sc.y.SubsetInto(idxs, ws.sets[b])
	}
	return sc.it.Intersect(ws.sets, ws.isc)
}

// record stores candidate i as the current best hit. Caller holds sc.mu
// (or is the sole sequential scanner).
func (sc *partitionScan) record(i int, pt vec.V) {
	row := sc.assign[i*sc.n : (i+1)*sc.n]
	blocks := make([][]int, sc.parts)
	for e := range row {
		b := row[e]
		blocks[b] = append(blocks[b], e)
	}
	sc.bestBlocks = blocks
	sc.bestPoint = pt
}

// flush evaluates the buffered candidates and reports whether any was
// feasible, recording the lowest-index hit.
func (sc *partitionScan) flush() bool {
	count := sc.count
	sc.count = 0
	scanChunks.Inc()
	scanCandidates.Add(int64(count))
	if sc.workers == 1 || count == 1 {
		ws := sc.scratch[0]
		for i := 0; i < count; i++ {
			if pt, ok := sc.eval(ws, i); ok {
				sc.record(i, pt)
				return true
			}
		}
		return false
	}
	var best atomic.Int64
	best.Store(int64(count))
	par.ForEachW(count, sc.workers, func(w, i int) {
		// Candidates above the best hit so far can no longer win;
		// everything at or below it is still evaluated, so the minimum
		// feasible index is always found.
		if int64(i) > best.Load() {
			return
		}
		pt, ok := sc.eval(sc.scratch[w], i)
		if !ok {
			return
		}
		sc.mu.Lock()
		if int64(i) < best.Load() {
			best.Store(int64(i))
			sc.record(i, pt)
		}
		sc.mu.Unlock()
	})
	return best.Load() < int64(count)
}
