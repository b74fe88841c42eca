package geom

import (
	"relaxedbvc/internal/memo"
	"relaxedbvc/internal/vec"
)

// The hull predicates are pure functions of their inputs, and consensus
// sweeps re-issue them with bit-identical arguments across trials,
// rounds and processes (every honest process checks the same output
// against the same non-faulty set; the minimax solvers probe the same
// subsets thousands of times). A process-wide memo table keyed by the
// exact binary encoding of the arguments removes the repeats without
// changing any result: keys preserve input order and float bit
// patterns, so a hit returns exactly what the solver would recompute.
//
// The cache is safe for concurrent use (batch workers share it); a miss
// IS the uncached computation, so ResetCache gives a cold reference.
var cache = memo.New(0)

func init() { cache.RegisterMetrics("geom") }

// Cache op tags (key namespaces).
const (
	opInHull  = 'h'
	opDist1   = '1'
	opDist2   = '2'
	opDistInf = 'i'
	opDistFW  = 'p'
)

// CacheStats reports the geometry cache counters.
func CacheStats() memo.Stats { return cache.Stats() }

// ResetCache drops all cached geometry results.
func ResetCache() { cache.Reset() }

// distEntry is the cached value of a distance solve.
type distEntry struct {
	d  float64
	pt vec.V
}

// pointSetKey appends q and the points of s (order-preserving, exact
// float bits) to a pooled key. The caller must Release it.
func pointSetKey(op byte, q vec.V, s *vec.Set) *memo.Key {
	k := memo.GetKey(op)
	k.Floats(q)
	k.Int(s.Len())
	for i := 0; i < s.Len(); i++ {
		k.Floats(s.At(i))
	}
	return k
}

func cachedDist(op byte, q vec.V, s *vec.Set, extra float64, compute func() (float64, vec.V)) (float64, vec.V) {
	k := memo.GetKey(op)
	k.Float(extra)
	k.Floats(q)
	k.Int(s.Len())
	for i := 0; i < s.Len(); i++ {
		k.Floats(s.At(i))
	}
	defer k.Release()
	var e distEntry
	if v, ok := cache.Get(k); ok {
		e = v.(distEntry)
	} else {
		d, pt := compute()
		e = cache.Put(k, distEntry{d: d, pt: pt}).(distEntry)
	}
	// Clone: callers may mutate the returned point; the cached copy must
	// stay pristine.
	return e.d, e.pt.Clone()
}
