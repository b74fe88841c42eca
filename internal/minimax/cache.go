package minimax

import (
	"relaxedbvc/internal/memo"
	"relaxedbvc/internal/vec"
)

// Every iterate of the cutting-plane loop solves a Wolfe min-norm-point
// per dropped subset, C(n,f) of them. Every step of the solver is
// deterministic in (S, f), and consensus sweeps re-ask the same instance
// across processes and trials, so a memo table keyed on the exact binary
// encoding of the inputs returns bit-identical results for free. Safe
// for concurrent use.
var cache = memo.New(0)

func init() { cache.RegisterMetrics("minimax") }

const (
	opDeltaStar2 = 's'
	opDeltaIter  = 't'
)

// CacheStats reports the minimax cache counters.
func CacheStats() memo.Stats { return cache.Stats() }

// ResetCache drops all cached minimax results.
func ResetCache() { cache.Reset() }

// setKey builds a pooled key over the exact binary encoding of (op, f,
// S). The caller must Release it.
func setKey(op byte, s *vec.Set, f int) *memo.Key {
	k := memo.GetKey(op)
	k.Int(f)
	k.Int(s.Len())
	for i := 0; i < s.Len(); i++ {
		k.Floats(s.At(i))
	}
	return k
}

func cachedDeltaStar(op byte, s *vec.Set, f int, compute func() Result) Result {
	k := setKey(op, s, f)
	defer k.Release()
	var r Result
	if v, ok := cache.Get(k); ok {
		r = v.(Result)
	} else {
		r = cache.Put(k, compute()).(Result)
	}
	r.Point = r.Point.Clone()
	return r
}
