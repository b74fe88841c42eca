package broadcast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"relaxedbvc/internal/sched"
)

// eigEntry encodes one body entry; nil is the absent marker.
func eigEntry(v []byte) []byte {
	if v == nil {
		return binary.BigEndian.AppendUint32(nil, eigAbsent)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(v))), v...)
}

// eigBodyMsg builds an "eig" message from a header and raw entries, so a
// test can craft what no honest sender emits.
func eigBodyMsg(from int, level, first, count uint32, entries ...[]byte) sched.Message {
	data := binary.BigEndian.AppendUint32(nil, level)
	data = binary.BigEndian.AppendUint32(data, first)
	data = binary.BigEndian.AppendUint32(data, count)
	for _, e := range entries {
		data = append(data, e...)
	}
	return sched.Message{From: from, To: 0, Tag: "eig", Data: data}
}

// deliveredTo is what process to receives of sender from's outs.
func deliveredTo(from, to int, outs []sched.Outgoing) []sched.Message {
	var in []sched.Message
	for _, o := range outs {
		if o.To == to || (o.To == sched.Broadcast && to != from) {
			in = append(in, sched.Message{From: from, To: to, Tag: o.Tag, Data: o.Data})
		}
	}
	return in
}

func TestSlotOfOrdersPathsLikeTheirEncoding(t *testing.T) {
	// Slot order must be the order of the big-endian encoded paths (the
	// key order of the map-keyed tree the flat levels replaced): bodies
	// list entries in it, and relays, with them a Byzantine behavior's
	// RNG stream, follow it.
	const n = 6
	for l := 1; l <= 4; l++ {
		path := make([]int, l)
		var prev []byte
		for g := 0; g < permutations(n, l); g++ {
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

func TestEIGPlanMatchesPaths(t *testing.T) {
	// Entry i of sender s's level-l body is the i-th level-l node, in
	// slot order, whose path ends in s; its parent is that path minus s.
	// Every level-l slot is some sender's entry exactly once.
	for _, n := range []int{2, 4, 6} {
		for l := 1; l <= n; l++ {
			plan := eigPlanFor(n, l)
			seen := make([]bool, permutations(n, l))
			path := make([]int, l)
			for s := 0; s < n; s++ {
				parents, children := plan.of(s)
				if len(children) != permutations(n-1, l-1) {
					t.Fatalf("n=%d level %d sender %d: %d entries, want %d", n, l, s, len(children), permutations(n-1, l-1))
				}
				for i, c := range children {
					pathAt(n, int(c), path)
					parent, _ := slotOf(n, path[:l-1])
					if path[l-1] != s || int(parents[i]) != parent || seen[c] || (i > 0 && c <= children[i-1]) {
						t.Fatalf("n=%d level %d sender %d entry %d: slot %d path %v parent %d", n, l, s, i, c, path, parents[i])
					}
					seen[c] = true
				}
			}
			for g, ok := range seen {
				if !ok {
					t.Fatalf("n=%d level %d: slot %d is no sender's entry", n, l, g)
				}
			}
		}
	}
}

func TestEIGStepDropsCraftedMessages(t *testing.T) {
	// One Byzantine peer must not be able to crash an honest node, plant
	// nodes outside the tree or have part of a malformed body stored.
	// Each crafted message goes to a fresh n=5 f=2 node 0 at the round
	// its (claimed) level belongs to; stored counts the tree nodes it
	// adds, own relays of what it accepted included.
	v := eigEntry([]byte("v"))
	absent := eigEntry(nil)
	valid1 := eigBodyMsg(2, 1, 0, 1, v)
	cases := []struct {
		name   string
		round  int
		msg    sched.Message
		stored int
	}{
		{"valid level 1", 0, valid1, 2},
		{"valid, empty value", 0, eigBodyMsg(2, 1, 0, 1, eigEntry([]byte{})), 2},
		{"valid, absent", 0, eigBodyMsg(2, 1, 0, 1, absent), 0},
		{"valid level 2", 1, eigBodyMsg(3, 2, 0, 4, v, v, v, v), 7},
		{"valid level 2, cut", 1, eigBodyMsg(3, 2, 2, 2, v, v), 4},
		{"valid level 2, absent parent", 1, eigBodyMsg(3, 2, 0, 4, v, absent, v, absent), 3},
		{"valid level 3, last entry", 2, eigBodyMsg(3, 3, 11, 1, v), 1},
		{"no data", 0, sched.Message{From: 2, Tag: "eig"}, 0},
		{"short header", 0, sched.Message{From: 2, Tag: "eig", Data: valid1.Data[:eigHeaderLen-1]}, 0},
		{"header only", 0, sched.Message{From: 2, Tag: "eig", Data: valid1.Data[:eigHeaderLen]}, 0},
		{"level != round", 0, eigBodyMsg(2, 2, 0, 1, v), 0},
		{"level 0", 0, eigBodyMsg(2, 0, 0, 1, v), 0},
		{"level past f+1", 3, eigBodyMsg(4, 4, 0, 1, v), 0},
		{"no entries", 0, eigBodyMsg(2, 1, 0, 0), 0},
		{"start past the level", 0, eigBodyMsg(2, 1, 1, 1, v), 0},
		{"start overflows", 1, eigBodyMsg(3, 2, 0xffffffff, 2, v, v), 0},
		{"count past the level", 1, eigBodyMsg(3, 2, 0, 5, v, v, v, v, v), 0},
		{"too few entries", 1, eigBodyMsg(3, 2, 0, 4, v, v, v), 0},
		{"too many entries", 1, eigBodyMsg(3, 2, 0, 3, v, v, v, v), 0},
		{"trailing byte", 0, sched.Message{From: 2, Tag: "eig", Data: append(append([]byte(nil), valid1.Data...), 0xff)}, 0},
		{"truncated value", 0, eigBodyMsg(2, 1, 0, 1, []byte{0, 0, 0, 9, 'x'}), 0},
		{"truncated length", 0, eigBodyMsg(2, 1, 0, 1, []byte{0, 0}), 0},
		{"good entry, then truncated", 1, eigBodyMsg(3, 2, 0, 2, v, []byte{0, 0, 1, 0, 'x'}), 0},
		{"other tag", 0, sched.Message{From: 2, Tag: "rbc", Data: valid1.Data}, 0},
		{"sender id >= n", 0, sched.Message{From: 9, Tag: "eig", Data: valid1.Data}, 0},
		{"negative sender", 0, sched.Message{From: -1, Tag: "eig", Data: valid1.Data}, 0},
		{"sender is self", 0, sched.Message{From: 0, Tag: "eig", Data: valid1.Data}, 0},
	}
	for _, c := range cases {
		p := NewEIGNode(5, 2, 0, []byte("in"), nil, []byte("def"))
		p.Start()
		before := p.TreeNodes()
		p.Step(c.round, []sched.Message{c.msg})
		if got := p.TreeNodes() - before; got != c.stored {
			t.Errorf("%s: stored %d nodes, want %d", c.name, got, c.stored)
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
		leaf := getEIGLeaf(permutations(n, f+1))
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
		got := p.resolve(leaf)
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

// ownCopy copies v into a backing array of its own with one spare byte
// of capacity, so sameSlice tells byte-equal copies (empty ones too)
// apart; nil stays nil.
func ownCopy(v []byte) []byte {
	if v == nil {
		return nil
	}
	return append(make([]byte, 0, len(v)+1), v...)
}

// sameSlice reports whether a and b are the same slice: both nil, or the
// same length, capacity and backing array (every non-nil slice here has
// capacity, see ownCopy).
func sameSlice(a, b []byte) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return len(a) == len(b) && cap(a) == cap(b) && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// checkMajority requires majority to return the element refMajority
// does: the same index of vals (first match), or def itself.
func checkMajority(t *testing.T, vals [][]byte, def []byte) {
	t.Helper()
	which := func(v []byte) int {
		for i, w := range vals {
			if sameSlice(v, w) {
				return i
			}
		}
		if sameSlice(v, def) {
			return -1
		}
		t.Fatalf("majority(%q) returned a slice of neither vals nor def", vals)
		return 0
	}
	if got, want := which(majority(vals, def)), which(refMajority(vals, def)); got != want {
		t.Fatalf("majority(%q): element %d, two-pass referee %d (-1: def)", vals, got, want)
	}
}

func TestMajorityMatchesTwoPass(t *testing.T) {
	// Groups of 0-12 values drawn from nil, empty, def itself, copies of
	// def and 1-3 distinct values, every copy in its own backing array:
	// the one-pass vote must return the very element the two-pass one
	// does, which pins nil-ness and which copy wins.
	rng := rand.New(rand.NewSource(32))
	def := ownCopy([]byte("def"))
	palette := [][]byte{[]byte("a"), []byte("ab"), []byte("b")}
	vals := make([][]byte, 0, 12)
	for group := 0; group < 100_000; group++ {
		distinct := palette[:1+rng.Intn(len(palette))]
		vals = vals[:0]
		for k := rng.Intn(13); k > 0; k-- {
			switch r := rng.Intn(10); {
			case r == 0:
				vals = append(vals, nil)
			case r == 1:
				vals = append(vals, ownCopy([]byte{}))
			case r == 2:
				vals = append(vals, def)
			case r == 3:
				vals = append(vals, ownCopy(def))
			default:
				vals = append(vals, ownCopy(distinct[rng.Intn(len(distinct))]))
			}
		}
		checkMajority(t, vals, def)
	}
}

// FuzzMajority holds the one-pass majority to the two-pass referee on
// values cut from the fuzzer's bytes at every 0xff: a lone 0xfe piece is
// nil, and the literal piece "def" is the default itself.
func FuzzMajority(f *testing.F) {
	f.Add([]byte("a\xffa\xffb"))
	f.Add([]byte("a\xffb\xffb\xffa\xffb"))
	f.Add([]byte("\xff\xff\xfe\xffdef\xffdef\xffa"))
	f.Add([]byte("b\xffa\xffa\xffb\xffa\xffc\xffa"))
	f.Fuzz(func(t *testing.T, data []byte) {
		def := ownCopy([]byte("def"))
		var vals [][]byte
		for _, piece := range bytes.Split(data, []byte{0xff}) {
			switch string(piece) {
			case "\xfe":
				vals = append(vals, nil)
			case "def":
				vals = append(vals, def)
			default:
				vals = append(vals, ownCopy(piece))
			}
		}
		checkMajority(t, vals, def)
	})
}

// FuzzEIGStep feeds one arbitrary message, at an arbitrary round, to an
// honest node: no input may panic it, store a node outside the tree or
// make it send more than its one relay body.
func FuzzEIGStep(f *testing.F) {
	const n, faults = 5, 2
	slots := 0
	for l := 1; l <= faults+1; l++ {
		slots += permutations(n, l)
	}
	v := eigEntry([]byte("value"))
	for level := 1; level <= faults+1; level++ {
		per := uint32(permutations(n-1, level-1))
		from := 3
		entries := make([][]byte, per)
		for i := range entries {
			entries[i] = v
		}
		valid := eigBodyMsg(from, uint32(level), 0, per, entries...)
		round := level - 1
		f.Add(round, from, valid.Data)
		f.Add(round, from, eigBodyMsg(from, uint32(level), per-1, 1, v).Data)
		f.Add(round, from, eigBodyMsg(from, uint32(level), 0, per+1, append(entries, v)...).Data)
		f.Add(round, from, eigBodyMsg(from, uint32(level), 0, per, entries[1:]...).Data)
		f.Add(round, from, eigBodyMsg(from, uint32(level+1), 0, per, entries...).Data)
		f.Add(round, from, valid.Data[:len(valid.Data)-1])
		f.Add(round, from, append(valid.Data, 0xff))
		f.Add(round, from, valid.Data[:eigHeaderLen-1])
	}
	f.Add(0, 9, eigBodyMsg(9, 1, 0, 1, v).Data)
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
			t.Fatalf("one message triggered %d relay messages", len(outs))
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
	_, nodes, eng := runEIG(tb, f, inputs, map[int]EIGBehavior{n - 1: liar}, make([]byte, 28), nil)
	treeNodes := 0
	for _, nd := range nodes {
		treeNodes += nd.TreeNodes()
	}
	// One message per link per round: n(n-1)(f+1).
	if eng.Messages != 360 || treeNodes != 58600 {
		tb.Fatalf("messages %d tree nodes %d, want 360 and 58600", eng.Messages, treeNodes)
	}
}

func BenchmarkEIGAllToAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eigBenchRun(b)
	}
}

// eigRunBytes is the measured heap bytes of one eigBenchRun, the liar's
// own 28-byte relays included; parentEIGRunBytes is the same run when
// every process kept its 5 040-slot leaf level from round f-1 until it
// was dropped.
const (
	eigRunBytes       = 1.0e6
	parentEIGRunBytes = 2.22e6
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of Puts at random: the deciding Step's leaf then allocates.
var raceEnabled bool

func TestEIGAllToAllAllocationCeiling(t *testing.T) {
	// Step 1 allocates per round, process and recipient, not per tree
	// node: ~300 allocations plus the liar's own 5 274 (the map-keyed
	// tree took ~640 000). The ceilings leave room for runtime noise, not
	// for a per-entry allocation (58 600 tree nodes) or a leaf level per
	// process.
	const runs = 5
	eigBenchRun(t) // the slot plans are built once per (n, level)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eigBenchRun(t)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %.2f MB per run (pinned %.2f MB; parent %.2f MB)", allocs, bytes/1e6, eigRunBytes/1e6, parentEIGRunBytes/1e6)
	if allocs > 6000 {
		t.Errorf("%.0f allocations per n=10 f=3 all-to-all run, ceiling 6000", allocs)
	}
	if bytes > 1.25*eigRunBytes && !raceEnabled {
		t.Errorf("%.2f MB per n=10 f=3 all-to-all run, ceiling %.2f MB", bytes/1e6, 1.25*eigRunBytes/1e6)
	}
}

func TestEIGConcurrentRunsMatchReferee(t *testing.T) {
	// Two n=10 f=3 all-to-all broadcasts deciding at once on two
	// goroutines, the shape of RunBatch's workers, share the leaf pool:
	// every decision must still be the referee's.
	const n, f, runs = 10, 3, 3
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte(i)}, 28)
	}
	def := make([]byte, 28)
	liar := func() EIGBehavior { return &randomLiar{rand.New(rand.NewSource(5))} }
	refs := make([]*refEIGNode, n)
	for i := range refs {
		refs[i] = NewRefEIGNode(n, f, i, inputs[i], nil, def)
	}
	refs[n-1] = NewRefEIGNode(n, f, n-1, inputs[n-1], liar(), def)
	runEngine(t, refs, nil, nil)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runs && errs[w] == nil; r++ {
				nodes := make([]sched.SyncProcess, n)
				eig := make([]*EIGNode, n)
				for i := range eig {
					var b EIGBehavior
					if i == n-1 {
						b = liar()
					}
					eig[i] = NewEIGNode(n, f, i, inputs[i], b, def)
					nodes[i] = eig[i]
				}
				if _, err := sched.NewSyncEngine(nodes).Run(); err != nil {
					errs[w] = err
					break
				}
				for i, nd := range eig {
					for c, v := range nd.Decided() {
						if want := refs[i].Decided()[c]; !bytes.Equal(v, want) {
							errs[w] = fmt.Errorf("run %d process %d commander %d: decided %x, referee %x", r, i, c, v, want)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
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
	runEIG(t, f, honestInputs(n, "v"), map[int]EIGBehavior{2: rec}, []byte("def"), nil)
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

func TestCheckEIGTree(t *testing.T) {
	for _, c := range []struct {
		n, f int
		ok   bool
	}{
		{5, 0, true},
		{10, 3, true},
		{23, 4, true}, // 4 037 880 leaf slots
		{24, 4, false},
		{1 << 40, 3, false}, // the product overflows int64; the limit stops it first
		{40, 13, false},
	} {
		if err := CheckEIGTree(c.n, c.f); (err == nil) != c.ok {
			t.Errorf("CheckEIGTree(%d, %d) = %v, want ok=%v", c.n, c.f, err, c.ok)
		}
	}
	if err := CheckEIGTree(40, 13); err == nil || !strings.Contains(err.Error(), "2.02e+21") {
		t.Errorf("CheckEIGTree(40, 13) = %v, want the 2.02e+21-slot size named", err)
	}
}

func TestEIGCommandersAbove255(t *testing.T) {
	// A wire format that names the instance in one byte loses commanders
	// 256 and up: an honest process decided the default for them. Process
	// 0's view of an all-honest n=260 f=1 run is built sender by sender,
	// so one 67 340-slot tree is alive at a time.
	const n, f = 260, 1
	inputs, def := honestInputs(n, "v"), []byte("def")
	starts := make([][]sched.Outgoing, n)
	for i := range starts {
		starts[i] = NewEIGNode(n, f, i, inputs[i], nil, def).Start()
	}
	round0 := func(to int) []sched.Message {
		var in []sched.Message
		for from, outs := range starts {
			in = append(in, deliveredTo(from, to, outs)...)
		}
		return in
	}
	var round1 []sched.Message
	for s := 1; s < n; s++ {
		node := NewEIGNode(n, f, s, inputs[s], nil, def)
		node.Start()
		round1 = append(round1, deliveredTo(s, 0, node.Step(0, round0(s)))...)
	}
	p := NewEIGNode(n, f, 0, inputs[0], nil, def)
	p.Start()
	p.Step(0, round0(0))
	p.Step(1, round1)
	if !p.Done() {
		t.Fatal("process 0 did not decide")
	}
	for c, v := range p.Decided() {
		if !bytes.Equal(v, inputs[c]) {
			t.Errorf("commander %d: decided %q, input %q", c, v, inputs[c])
		}
	}
}

func TestEIGBodiesCutAtEntryBoundaries(t *testing.T) {
	// 10 KiB values put a level-2 body past eigBodyCap after four
	// entries: every message stays within the cap plus one entry, the
	// cut ones carry a later first entry, and the run decides what the
	// per-node referee does.
	const n, f = 7, 2
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte('a' + i)}, 10<<10)
	}
	mk := func() map[int]EIGBehavior {
		return map[int]EIGBehavior{3: &twoFaced{bytes.Repeat([]byte("x"), 10<<10), []byte("y")}}
	}
	largest, cut := 0, 0
	trace := func(m sched.Message) {
		largest = max(largest, len(m.Data))
		if binary.BigEndian.Uint32(m.Data[4:]) > 0 {
			cut++
		}
	}
	decided, _, _ := runEIG(t, f, inputs, mk(), []byte("def"), trace)
	if limit := eigBodyCap + eigHeaderLen + 4 + 10<<10; largest > limit || cut == 0 {
		t.Fatalf("largest message %d bytes (limit %d), %d cut messages", largest, limit, cut)
	}
	refs := make([]*refEIGNode, n)
	behaviors := mk()
	for i := range refs {
		refs[i] = NewRefEIGNode(n, f, i, inputs[i], behaviors[i], []byte("def"))
	}
	runEngine(t, refs, nil, nil)
	for i, ref := range refs {
		for c, v := range ref.Decided() {
			if !bytes.Equal(decided[i][c], v) {
				t.Fatalf("process %d commander %d: decided %.8q, referee %.8q", i, c, decided[i][c], v)
			}
		}
	}
}
