// Package memo provides the concurrency-safe memoization cache behind
// the geometry kernels (geom.InHull, geom.DistP, relax.GammaPoint,
// minimax.DeltaStar2, ...). The hot LP/minimax solves of a consensus
// sweep recur across trials, rounds and processes with bit-identical
// inputs; caching them keyed by the exact binary encoding of the inputs
// is a pure win: a hit returns exactly the value the solver would have
// recomputed, so cached and uncached runs agree bit-for-bit.
//
// Caches are safe for concurrent use by the batch engine's workers. The
// table is split into power-of-two shards selected by an FNV-1a hash of
// the exact binary key, so workers hammering different keys lock
// different mutexes instead of contending on one global table. Two workers may still race to compute the same
// key; both compute the same deterministic value and one insert wins,
// so results never depend on scheduling.
//
// The hot lookup path allocates nothing: keys are assembled in pooled
// builders (GetKey/Release) whose byte arenas are reused, shard
// selection hashes the bytes in place, and the map probe uses the
// compiler's zero-copy []byte->string lookup. Only inserts (misses)
// materialize a key string.
//
// Capacity is bounded per shard. A full shard evicts with a bounded
// second-chance (clock) sweep: entries touched since the last sweep get
// one reprieve, cold entries are replaced. Hot keys therefore survive
// arbitrary pressure, and Stats.Overflow counts every insert that had
// to evict — the pressure signal that the capacity is too small for the
// workload.
package memo

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/vec"
)

// maxShards bounds the lock striping; shard counts are powers of two
// so the hash can be masked. 32 shards keep worst-case contention
// negligible at the worker counts the batch engine uses. Small caches
// use fewer shards so the per-shard capacity split still honors the
// total bound exactly.
const maxShards = 32

// shardCount picks the largest power of two <= maxShards that keeps
// every shard at least minShardCap entries deep.
func shardCount(cap int) int {
	const minShardCap = 64
	n := 1
	for n*2 <= maxShards && cap/(n*2) >= minShardCap {
		n *= 2
	}
	return n
}

// entry is one cached value plus its second-chance reference bit. The
// bit is set lock-free on hits (readers hold only the shard read lock)
// and cleared by the eviction sweep under the write lock.
type entry struct {
	v   any
	ref atomic.Bool
}

// shard is one lock-striped segment of the table. ring holds the keys
// in insertion order and doubles as the clock for second-chance
// eviction; it always contains exactly the keys of m.
type shard struct {
	mu   sync.RWMutex
	m    map[string]*entry
	ring []string
	hand int
	cap  int
}

// Cache is a bounded concurrent memo table. The zero value is unusable;
// use New.
type Cache struct {
	shards    []shard
	mask      uint64
	hits      atomic.Int64
	misses    atomic.Int64
	overflow  atomic.Int64
	evictions atomic.Int64
}

// DefaultCap is the total entry bound used by New(0).
const DefaultCap = 1 << 16

// New returns a cache holding at most cap entries in total
// (cap <= 0 means DefaultCap). The capacity is split exactly across the
// shards (the first cap mod shards shards take one extra entry), so the
// sum of shard capacities equals cap.
func New(cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := shardCount(cap)
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	per, extra := cap/n, cap%n
	for i := range c.shards {
		sc := per
		if i < extra {
			sc++
		}
		c.shards[i] = shard{m: make(map[string]*entry), cap: sc}
	}
	return c
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, x := range b {
		h ^= uint64(x)
		h *= fnvPrime
	}
	return h
}

func (c *Cache) shardFor(h uint64) *shard { return &c.shards[h&c.mask] }

// Get returns the cached value for the key accumulated in k. It is the
// zero-allocation hot path: the key bytes are hashed and probed in
// place, and a hit only flips the entry's reference bit. Get does not
// consume k; the caller still owns (and should Release) it.
func (c *Cache) Get(k *Key) (any, bool) {
	s := c.shardFor(fnvBytes(k.b))
	s.mu.RLock()
	e, ok := s.m[string(k.b)]
	s.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e.ref.Store(true)
	c.hits.Add(1)
	return e.v, true
}

// Put stores v under k's key and returns the canonical value: v itself,
// or the previously stored value if a concurrent worker inserted the
// same key first (so all readers observe one entry). Put materializes
// the key string (one allocation); it is only reached on misses. The
// caller still owns k.
func (c *Cache) Put(k *Key, v any) any {
	s := c.shardFor(fnvBytes(k.b))
	s.mu.Lock()
	if prev, ok := s.m[string(k.b)]; ok {
		v = prev.v
		s.mu.Unlock()
		return v
	}
	s.insertLocked(string(k.b), v, c)
	s.mu.Unlock()
	return v
}

// insertLocked stores (key, v), evicting one cold entry when the shard
// is full. Called with s.mu held for writing.
func (s *shard) insertLocked(key string, v any, c *Cache) {
	e := &entry{v: v}
	if len(s.m) < s.cap {
		s.m[key] = e
		s.ring = append(s.ring, key)
		return
	}
	// Second-chance sweep: every entry gets at most one reprieve per
	// sweep, so the loop terminates within 2*len(ring) steps.
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		victim := s.ring[s.hand]
		ve := s.m[victim]
		if ve.ref.Load() {
			ve.ref.Store(false)
			s.hand++
			continue
		}
		delete(s.m, victim)
		s.m[key] = e
		s.ring[s.hand] = key
		s.hand++
		c.overflow.Add(1)
		c.evictions.Add(1)
		return
	}
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits, Misses int64
	// Overflow counts values that could only be stored by evicting a
	// colder entry (the capacity-pressure signal; before eviction
	// existed it counted values dropped at capacity).
	Overflow int64
	// Evictions counts entries removed by the second-chance sweep.
	Evictions int64
	Entries   int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// entries sums the shard table sizes.
func (c *Cache) entries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	capTotal := 0
	for i := range c.shards {
		capTotal += c.shards[i].cap
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Overflow:  c.overflow.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries(),
		Capacity:  capTotal,
	}
}

// Reset drops all entries and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry)
		s.ring = s.ring[:0]
		s.hand = 0
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.overflow.Store(0)
	c.evictions.Store(0)
}

// Register returns a new DefaultCap cache with its counters published
// into the default metrics registry as read callbacks named
// <name>_cache_{hits,misses,overflow,evictions}_total and
// <name>_cache_entries. The counters are cumulative (reset only via
// Reset); entries reports the current table size, so its
// per-experiment diff is entry growth. A kernel package registers its
// one cache in an exported package-level var.
func Register(name string) *Cache {
	c := New(0)
	metrics.RegisterFunc(name+"_cache_hits_total", c.hits.Load)
	metrics.RegisterFunc(name+"_cache_misses_total", c.misses.Load)
	metrics.RegisterFunc(name+"_cache_overflow_total", c.overflow.Load)
	metrics.RegisterFunc(name+"_cache_evictions_total", c.evictions.Load)
	metrics.RegisterFunc(name+"_cache_entries", func() int64 {
		return int64(c.entries())
	})
	return c
}

// Cached returns the value stored under k's key, or computes, stores
// and returns it. A hit allocates nothing; a miss stores one entry, and
// when concurrent workers race on one key every caller gets the value
// that won. The caller still owns k.
func Cached[T any](c *Cache, k *Key, compute func() T) T {
	if v, ok := c.Get(k); ok {
		return v.(T)
	}
	return c.Put(k, compute()).(T)
}

// Key builds canonical binary cache keys. It preserves input order and
// exact float bits, so two keys are equal iff the inputs are
// bit-identical in the same order — the property that makes cached and
// uncached results indistinguishable.
type Key struct{ b []byte }

// keyPool recycles Key arenas so steady-state key building allocates
// nothing. Oversized arenas (beyond maxPooledKey) are dropped rather
// than pinned in the pool. Gets-vs-news is the arena-reuse signal of
// the memoization layer: in steady state news stays flat while gets
// climbs (see memo_key_pool_{gets,news}_total in the metrics registry).
var keyPool = sync.Pool{New: func() any {
	keyPoolNews.Inc()
	return &Key{b: make([]byte, 0, 512)}
}}

var (
	keyPoolGets = metrics.DefaultCounter("memo_key_pool_gets_total")
	keyPoolNews = metrics.DefaultCounter("memo_key_pool_news_total")
)

const maxPooledKey = 1 << 16

// GetKey returns a pooled key builder primed with an operation tag
// namespacing the cache line. Release it after the lookup completes.
func GetKey(op byte) *Key {
	keyPoolGets.Inc()
	k := keyPool.Get().(*Key)
	k.b = append(k.b[:0], op)
	return k
}

// Release returns k to the builder pool. The key's bytes must not be
// used after Release.
func (k *Key) Release() {
	if cap(k.b) <= maxPooledKey {
		keyPool.Put(k)
	}
}

// NewKey starts a fresh (unpooled) key with an operation tag. Prefer
// GetKey/Release on hot paths.
func NewKey(op byte) *Key { return &Key{b: []byte{op}} }

// Int appends an integer.
func (k *Key) Int(v int) *Key {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	k.b = append(k.b, buf[:]...)
	return k
}

// Float appends the exact bit pattern of a float64.
func (k *Key) Float(v float64) *Key {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	k.b = append(k.b, buf[:]...)
	return k
}

// Floats appends a slice of float64 values (length-prefixed).
func (k *Key) Floats(vs []float64) *Key {
	k.Int(len(vs))
	for _, v := range vs {
		k.Float(v)
	}
	return k
}

// Set appends a point set: its size, then every point (length-prefixed,
// exact bits) in order.
func (k *Key) Set(s *vec.Set) *Key {
	k.Int(s.Len())
	for i := 0; i < s.Len(); i++ {
		k.Floats(s.At(i))
	}
	return k
}

// String returns the accumulated key.
func (k *Key) String() string { return string(k.b) }
