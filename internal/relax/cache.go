package relax

import (
	"relaxedbvc/internal/memo"
	"relaxedbvc/internal/vec"
)

// GammaPoint and DeltaStarPoly enumerate exponentially many dropped
// subsets and solve one LP per subset, and consensus runs re-issue them
// with identical (S, f) arguments across processes and trials. The memo
// table keys on the exact binary encoding of the inputs, so a hit is
// bit-for-bit what the solver would recompute. Safe for concurrent use.
var cache = memo.New(0)

func init() { cache.RegisterMetrics("relax") }

const (
	opGamma     = 'G'
	opDeltaPoly = 'D'
)

// CacheStats reports the relax cache counters.
func CacheStats() memo.Stats { return cache.Stats() }

// ResetCache drops all cached relax results.
func ResetCache() { cache.Reset() }

type gammaEntry struct {
	pt vec.V
	ok bool
}

type deltaEntry struct {
	delta float64
	pt    vec.V
}

// setKey builds a pooled key over the exact binary encoding of (op, f,
// p, S). The caller must Release it.
func setKey(op byte, s *vec.Set, f int, p float64) *memo.Key {
	k := memo.GetKey(op)
	k.Int(f)
	k.Float(p)
	k.Int(s.Len())
	for i := 0; i < s.Len(); i++ {
		k.Floats(s.At(i))
	}
	return k
}
