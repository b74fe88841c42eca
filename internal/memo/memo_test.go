package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// do is the lookup idiom of every kernel call site: Get, and on a miss
// compute and Put. The key is the bytes of key under op tag 's'.
func do(c *Cache, key string, compute func() any) any {
	k := GetKey('s')
	defer k.Release()
	k.b = append(k.b, key...)
	if v, ok := c.Get(k); ok {
		return v
	}
	return c.Put(k, compute())
}

func TestDoCachesAndCounts(t *testing.T) {
	c := New(10)
	calls := 0
	f := func() any { calls++; return 42 }
	if v := do(c, "k", f); v.(int) != 42 {
		t.Fatalf("do = %v", v)
	}
	if v := do(c, "k", f); v.(int) != 42 {
		t.Fatalf("do = %v", v)
	}
	if calls != 1 {
		t.Errorf("compute called %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v", got)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(3)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		do(c, k, func() any { return i })
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Errorf("entries = %d, want 3 (bounded)", st.Entries)
	}
	// Uncached keys still compute correctly.
	if v := do(c, "k9", func() any { return 9 }); v.(int) != 9 {
		t.Errorf("overflow key = %v", v)
	}
}

func TestReset(t *testing.T) {
	c := New(10)
	do(c, "k", func() any { return 1 })
	c.Reset()
	st := c.Stats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// TestConcurrentSameKey hammers one key from many goroutines; every
// caller must observe the same canonical value even when computes race.
func TestConcurrentSameKey(t *testing.T) {
	c := New(10)
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := do(c, "shared", func() any { return 7 })
				if v.(int) != 7 {
					mismatches.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if mismatches.Load() != 0 {
		t.Errorf("%d mismatched reads", mismatches.Load())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 16*200 {
		t.Errorf("lost traffic: %+v", st)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(DefaultCap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("g%d-i%d", g, i%10)
				want := g*1000 + i%10
				v := do(c, k, func() any { return want })
				if v.(int) != want {
					t.Errorf("key %s = %v, want %d", k, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestKeyCanonical(t *testing.T) {
	a := NewKey('x').Int(3).Floats([]float64{1, 2}).Float(0.5).String()
	b := NewKey('x').Int(3).Floats([]float64{1, 2}).Float(0.5).String()
	if a != b {
		t.Error("identical inputs gave different keys")
	}
	// Order matters (exact-order keying, not multiset keying).
	cK := NewKey('x').Int(3).Floats([]float64{2, 1}).Float(0.5).String()
	if a == cK {
		t.Error("reordered inputs gave the same key")
	}
	// Op tag namespaces.
	dK := NewKey('y').Int(3).Floats([]float64{1, 2}).Float(0.5).String()
	if a == dK {
		t.Error("different op tags gave the same key")
	}
	// -0 vs +0 differ in bits: exactness over float equality.
	e := NewKey('x').Float(0.0).String()
	f := NewKey('x').Float(math_Copysign0()).String()
	if e == f {
		t.Error("+0 and -0 keys collide; keys must be exact bit patterns")
	}
}

func math_Copysign0() float64 {
	z := 0.0
	return -z
}

// TestEvictionHotKeySurvives drives a shard far past capacity while
// keeping one key hot. Second-chance eviction must keep the hot key
// resident (its reference bit is set on every hit) while cold keys
// churn, and Overflow must count the eviction pressure.
func TestEvictionHotKeySurvives(t *testing.T) {
	c := New(8) // single shard (small cap), capacity 8
	hotCalls := 0
	hot := func() any { hotCalls++; return "hot" }
	do(c, "hot", hot)
	for i := 0; i < 100; i++ {
		do(c, fmt.Sprintf("cold%d", i), func() any { return i })
		// Touch the hot key so its reference bit is set before any sweep
		// reaches it.
		if v := do(c, "hot", hot); v.(string) != "hot" {
			t.Fatalf("hot value = %v", v)
		}
	}
	if hotCalls != 1 {
		t.Errorf("hot key recomputed %d times; second-chance eviction should keep it resident", hotCalls)
	}
	st := c.Stats()
	if st.Overflow == 0 {
		t.Error("Overflow = 0; eviction pressure must still be counted")
	}
	if st.Evictions == 0 {
		t.Error("Evictions = 0 after driving 100 keys through an 8-entry cache")
	}
	if st.Entries > 8 {
		t.Errorf("entries = %d exceeds capacity 8", st.Entries)
	}
}

// TestEvictionColdKeyReplaced confirms a cold key is actually replaced
// (recomputed on re-access) once the cache cycles past capacity.
func TestEvictionColdKeyReplaced(t *testing.T) {
	c := New(4)
	calls := 0
	do(c, "first", func() any { calls++; return 1 })
	for i := 0; i < 50; i++ {
		do(c, fmt.Sprintf("churn%d", i), func() any { return i })
	}
	do(c, "first", func() any { calls++; return 1 })
	if calls != 2 {
		t.Errorf("cold key computed %d times, want 2 (evicted then recomputed)", calls)
	}
}

// TestShardedCapacitySplit: a large cache splits its capacity exactly
// across shards and still bounds the total entry count.
func TestShardedCapacitySplit(t *testing.T) {
	cap := 130 // not a multiple of the shard count
	c := New(cap)
	if got := c.Stats().Capacity; got != cap {
		t.Fatalf("total capacity = %d, want %d", got, cap)
	}
	for i := 0; i < 10*cap; i++ {
		do(c, fmt.Sprintf("k%d", i), func() any { return i })
	}
	if st := c.Stats(); st.Entries > cap {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, cap)
	}
}

// TestGetPutCanonical: Put returns the first-inserted value when two
// callers race on the same key, and Get replays it.
func TestGetPutCanonical(t *testing.T) {
	c := New(100)
	k1 := GetKey('z')
	k1.Int(7)
	if _, ok := c.Get(k1); ok {
		t.Fatal("hit before any Put")
	}
	if v := c.Put(k1, "a"); v.(string) != "a" {
		t.Fatalf("first Put = %v", v)
	}
	if v := c.Put(k1, "b"); v.(string) != "a" {
		t.Fatalf("second Put = %v, want canonical first value", v)
	}
	if v, ok := c.Get(k1); !ok || v.(string) != "a" {
		t.Fatalf("Get = %v %v", v, ok)
	}
	k1.Release()
}

// TestPooledKeyMatchesNewKey: a pooled and an unpooled key with the
// same bytes address the same entry.
func TestPooledKeyMatchesNewKey(t *testing.T) {
	c := New(100)
	calls := 0
	lookup := func(k *Key) any {
		if v, ok := c.Get(k); ok {
			return v
		}
		calls++
		return c.Put(k, 99)
	}
	k := GetKey('q')
	k.Int(42).Float(1.5)
	v1 := lookup(k)
	k.Release()
	v2 := lookup(NewKey('q').Int(42).Float(1.5))
	if v1.(int) != 99 || v2.(int) != 99 || calls != 1 {
		t.Errorf("v1=%v v2=%v calls=%d; pooled and unpooled keys must share entries", v1, v2, calls)
	}
}

// TestHitPathZeroAllocs pins the tentpole guarantee: a warm lookup —
// pooled key build, shard hash, map probe, release — performs zero
// heap allocations.
func TestHitPathZeroAllocs(t *testing.T) {
	c := New(1024)
	q := []float64{1.25, -2.5, 3.75}
	warm := GetKey('h')
	warm.Int(3).Floats(q)
	c.Put(warm, true)
	warm.Release()

	allocs := testing.AllocsPerRun(1000, func() {
		k := GetKey('h')
		k.Int(3).Floats(q)
		if _, ok := c.Get(k); !ok {
			t.Fatal("expected hit")
		}
		k.Release()
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentEviction hammers a small cache from many goroutines
// under the race detector: eviction bookkeeping (ring, hand, map) must
// stay consistent.
func TestConcurrentEviction(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("g%d-%d", g, i%40)
				want := g*1000 + i%40
				if v := do(c, k, func() any { return want }); v.(int) != want {
					t.Errorf("key %s = %v want %d", k, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 16 {
		t.Errorf("entries %d exceed capacity 16", st.Entries)
	}
}

// BenchmarkHitLookup measures the warm-lookup path; run with
// -benchmem to confirm 0 allocs/op.
func BenchmarkHitLookup(b *testing.B) {
	c := New(1024)
	q := []float64{1, 2, 3, 4}
	k := GetKey('h')
	k.Int(4).Floats(q)
	c.Put(k, 42)
	k.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := GetKey('h')
		k.Int(4).Floats(q)
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss")
		}
		k.Release()
	}
}
