package broadcast

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"relaxedbvc/internal/sched"
)

// eigMsg builds an "eig" message from raw field bytes, so a test can
// craft what no honest encoder emits.
func eigMsg(from int, inst, path, val []byte) sched.Message {
	data := appendBytes(appendBytes(appendBytes(nil, inst), path), val)
	return sched.Message{From: from, To: 0, Tag: "eig", Data: data}
}

func TestSlotOfOrdersPathsLikeTheirEncoding(t *testing.T) {
	// Slot order must be the order of the big-endian encoded paths (the
	// key order of the map-keyed tree this replaced): relays, and with
	// them a Byzantine behavior's RNG stream, follow it.
	const n = 6
	for l := 1; l <= 4; l++ {
		size := 1
		for k := 0; k < l; k++ {
			size *= n - k
		}
		path := make([]int, l)
		var prev []byte
		for g := 0; g < size; g++ {
			pathAt(n, g, path)
			if got, ok := slotOf(n, path); !ok || got != g {
				t.Fatalf("level %d: slotOf(pathAt(%d)=%v) = %d, %v", l, g, path, got, ok)
			}
			enc := encodePath(path)
			if prev != nil && bytes.Compare(prev, enc) >= 0 {
				t.Fatalf("level %d slot %d: path %v does not sort after its predecessor", l, g, path)
			}
			prev = enc
		}
	}
	for _, bad := range [][]int{{0, 0}, {1, 2, 1}, {6}, {0, 6, 1}, {-1}} {
		if _, ok := slotOf(n, bad); ok {
			t.Errorf("slotOf accepted %v", bad)
		}
	}
}

func TestEIGStepDropsCraftedMessages(t *testing.T) {
	// One Byzantine peer must not be able to crash an honest node or
	// plant nodes outside the tree. Each crafted message goes to a fresh
	// n=5 f=2 node at the round its (claimed) level belongs to.
	good := []byte("v")
	cases := []struct {
		name   string
		round  int
		msg    sched.Message
		stored bool
	}{
		{"valid level 1", 0, eigMsg(2, []byte{2}, encodePath([]int{2}), good), true},
		{"valid level 2", 1, eigMsg(3, []byte{2}, encodePath([]int{2, 3}), good), true},
		{"valid, empty value", 0, eigMsg(2, []byte{2}, encodePath([]int{2}), nil), true},
		{"empty instance field", 0, eigMsg(2, nil, encodePath([]int{2}), good), false},
		{"instance >= n", 0, eigMsg(2, []byte{200}, encodePath([]int{200}), good), false},
		{"instance >= n, sender's path", 0, eigMsg(2, []byte{200}, encodePath([]int{2}), good), false},
		{"two-byte instance field", 0, eigMsg(2, []byte{2, 0}, encodePath([]int{2}), good), false},
		{"valid level 3", 2, eigMsg(3, []byte{2}, encodePath([]int{2, 1, 3}), good), true},
		{"sender id >= n", 1, eigMsg(9, []byte{2}, encodePath([]int{2, 9}), good), false},
		{"path id >= n mid-path", 2, eigMsg(3, []byte{2}, encodePath([]int{2, 9, 3}), good), false},
		{"path longer than f+1", 3, eigMsg(4, []byte{2}, encodePath([]int{2, 1, 3, 4}), good), false},
		{"path level != round", 0, eigMsg(3, []byte{2}, encodePath([]int{2, 3}), good), false},
		{"empty path", 0, eigMsg(2, []byte{2}, encodePath(nil), good), false},
		{"short path field", 0, eigMsg(2, []byte{2}, []byte{0}, good), false},
		{"path shorter than its count", 1, eigMsg(3, []byte{2}, encodePath([]int{2, 3})[:4], good), false},
		{"path not from sender", 1, eigMsg(1, []byte{2}, encodePath([]int{2, 3}), good), false},
		{"path not from commander", 1, eigMsg(3, []byte{1}, encodePath([]int{2, 3}), good), false},
		{"repeated id", 1, eigMsg(2, []byte{2}, encodePath([]int{2, 2}), good), false},
		{"missing value field", 0, sched.Message{From: 2, Tag: "eig", Data: appendBytes(appendBytes(nil, []byte{2}), encodePath([]int{2}))}, false},
		{"truncated value field", 0, sched.Message{From: 2, Tag: "eig", Data: append(appendBytes(appendBytes(nil, []byte{2}), encodePath([]int{2})), 0, 0, 0, 9, 'x')}, false},
		{"no fields", 0, sched.Message{From: 2, Tag: "eig"}, false},
		{"other tag", 0, sched.Message{From: 2, Tag: "rbc", Data: eigMsg(2, []byte{2}, encodePath([]int{2}), good).Data}, false},
	}
	for _, c := range cases {
		p := NewEIGNode(5, 2, 0, []byte("in"), nil, []byte("def"))
		p.Start()
		before := p.TreeNodes()
		p.Step(c.round, []sched.Message{c.msg})
		// A relaying round also stores the node's own child of what it
		// accepted; a dropped message adds nothing at all.
		if got := p.TreeNodes() > before; got != c.stored {
			t.Errorf("%s: stored = %v, want %v", c.name, got, c.stored)
		}
	}
}

// refResolve is the recursive map-counting majority the bottom-up pass
// replaced, kept as the reference: tree maps encoded path to value.
func refResolve(n, f int, tree map[string][]byte, def []byte, path []int) []byte {
	if len(path) == f+1 {
		if v, ok := tree[string(encodePath(path))]; ok {
			return v
		}
		return def
	}
	counts := make(map[string]int)
	var order []string
	children := 0
	for j := 0; j < n; j++ {
		if pathContains(path, j) {
			continue
		}
		children++
		key := string(refResolve(n, f, tree, def, append(path[:len(path):len(path)], j)))
		if counts[key] == 0 {
			order = append(order, key)
		}
		counts[key]++
	}
	for _, key := range order {
		if 2*counts[key] > children {
			return []byte(key)
		}
	}
	return def
}

func TestResolveMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	def := []byte("def")
	// A small alphabet forces exact ties; it includes the default value
	// itself and the empty value, which is present, not absent.
	alphabet := [][]byte{[]byte("a"), []byte("b"), def, {}}
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(6)
		f := rng.Intn(min(n, 4))
		p := NewEIGNode(n, f, 0, []byte("in"), nil, def)
		leaf := p.level(f + 1)
		tree := make(map[string][]byte)
		path := make([]int, f+1)
		missing := rng.Float64() * 0.6
		for g := range leaf.has {
			if rng.Float64() < missing {
				continue // absent leaf: reads as the default
			}
			v := alphabet[rng.Intn(1+rng.Intn(len(alphabet)))]
			leaf.put(g, v)
			pathAt(n, g, path)
			tree[string(encodePath(path))] = v
		}
		want := make([][]byte, n)
		for c := range want {
			want[c] = refResolve(n, f, tree, def, []int{c})
		}
		got := p.resolve()
		if len(got) != n {
			t.Fatalf("n=%d f=%d: resolve returned %d values", n, f, len(got))
		}
		for c := range want {
			if !bytes.Equal(got[c], want[c]) {
				t.Fatalf("trial %d n=%d f=%d commander %d: bottom-up %q, reference %q", trial, n, f, c, got[c], want[c])
			}
		}
	}
}

func TestMajorityTiesAndAbsence(t *testing.T) {
	a, b, def := []byte("a"), []byte("b"), []byte("def")
	for _, c := range []struct {
		vals [][]byte
		want []byte
	}{
		{nil, def},
		{[][]byte{a}, a},
		{[][]byte{a, b}, def},
		{[][]byte{a, b, a}, a},
		{[][]byte{a, a, b, b}, def},
		{[][]byte{a, b, b, a, b}, b},
		{[][]byte{{}, {}, a}, []byte{}},
		{[][]byte{def, a, def}, def},
		{[][]byte{a, b, def}, def},
	} {
		if got := majority(c.vals, def); !bytes.Equal(got, c.want) {
			t.Errorf("majority(%q) = %q, want %q", c.vals, got, c.want)
		}
	}
}

// FuzzEIGStep feeds one arbitrary message, at an arbitrary round, to an
// honest node: no input may panic it or store a node outside the tree.
func FuzzEIGStep(f *testing.F) {
	const n, faults = 5, 2
	slots := 0
	for l, size := 1, n; l <= faults+1; l, size = l+1, size*(n-l) {
		slots += size
	}
	val := []byte("value")
	for level, path := range [][]int{{2}, {2, 3}, {2, 3, 1}} {
		valid := eigMsg(path[len(path)-1], []byte{2}, encodePath(path), val)
		f.Add(level, valid.From, valid.Data)
		// Each field truncated and oversized.
		f.Add(level, valid.From, eigMsg(valid.From, nil, encodePath(path), val).Data)
		f.Add(level, valid.From, eigMsg(valid.From, []byte{2, 2}, encodePath(path), val).Data)
		f.Add(level, valid.From, eigMsg(valid.From, []byte{2}, encodePath(path)[:1+2*len(path)], val).Data)
		f.Add(level, valid.From, eigMsg(valid.From, []byte{2}, encodePath(append(path, 4, 0, 1)), val).Data)
		f.Add(level, valid.From, valid.Data[:len(valid.Data)-1])
		f.Add(level, valid.From, append(valid.Data, 0xff))
	}
	f.Add(0, 3, eigMsg(3, []byte{200}, encodePath([]int{200}), val).Data)
	f.Fuzz(func(t *testing.T, round, from int, data []byte) {
		p := NewEIGNode(n, faults, 0, []byte("in"), nil, []byte("def"))
		p.Start()
		if round < -1 || round > faults+2 {
			round = 0
		}
		outs := p.Step(round, []sched.Message{{From: from, To: 0, Tag: "eig", Data: data}})
		if got := p.TreeNodes(); got > slots {
			t.Fatalf("%d tree nodes stored, the tree has %d slots", got, slots)
		}
		if len(outs) > 1 {
			t.Fatalf("one message triggered %d relays", len(outs))
		}
	})
}

// eigBenchRun is one n=10 f=3 all-to-all broadcast with one RandomLiar —
// the shape of the benchmark's sync_eig workload.
func eigBenchRun(tb testing.TB) {
	const n, f = 10, 3
	rng := rand.New(rand.NewSource(5))
	liar := EIGBehaviorFunc(func(int, []int, int, []byte) []byte {
		g := make([]byte, 28)
		rng.Read(g)
		return g
	})
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte(i)}, 28) // the size of an encoded d=3 vector
	}
	res, err := RunAllToAllEIG(n, f, inputs, map[int]EIGBehavior{n - 1: liar}, make([]byte, 28), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Messages != 52740 || res.TreeNodes != 58600 {
		tb.Fatalf("messages %d tree nodes %d, want 52740 and 58600", res.Messages, res.TreeNodes)
	}
}

func BenchmarkEIGAllToAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eigBenchRun(b)
	}
}

func TestEIGAllToAllAllocationCeiling(t *testing.T) {
	// Step 1 allocates per round and per process, not per message: the
	// map-keyed tree took ~640 000 allocations for this run, the flat one
	// ~230 plus the liar's own 5 274. The ceiling leaves room for
	// runtime noise, not for a per-message allocation (52 740 messages).
	if got := testing.AllocsPerRun(3, func() { eigBenchRun(t) }); got > 25000 {
		t.Fatalf("%.0f allocations per n=10 f=3 all-to-all run, ceiling 25000", got)
	}
}

func TestEIGRelayOrderIsInstancePathRecipient(t *testing.T) {
	// The RelayValue call order is part of the contract: a behavior that
	// draws from one RNG stream must see the same sequence on every run
	// and every transport.
	type call struct {
		path []int
		to   int
	}
	var calls []call
	rec := EIGBehaviorFunc(func(instance int, path []int, to int, honest []byte) []byte {
		if instance != path[0] {
			t.Fatalf("instance %d with path %v", instance, path)
		}
		calls = append(calls, call{append([]int(nil), path...), to})
		return honest
	})
	const n, f = 5, 2
	if _, err := RunAllToAllEIG(n, f, honestInputs(n, "v"), map[int]EIGBehavior{2: rec}, []byte("def"), nil); err != nil {
		t.Fatal(err)
	}
	if want := (n - 1) * (1 + (n - 1) + (n-1)*(n-2)); len(calls) != want {
		t.Fatalf("%d RelayValue calls, want %d", len(calls), want)
	}
	less := func(a, b call) bool {
		if len(a.path) != len(b.path) {
			return len(a.path) < len(b.path)
		}
		if c := bytes.Compare(encodePath(a.path), encodePath(b.path)); c != 0 {
			return c < 0
		}
		return a.to < b.to
	}
	if !sort.SliceIsSorted(calls, func(i, j int) bool { return less(calls[i], calls[j]) }) {
		t.Fatalf("RelayValue calls out of (level, path, recipient) order: %v", calls)
	}
	for _, c := range calls {
		if c.path[len(c.path)-1] != 2 || c.to == 2 {
			t.Fatalf("relay %v to %d is not process 2's", c.path, c.to)
		}
	}
}
