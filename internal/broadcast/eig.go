package broadcast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/sched"
)

// Broadcast observability (cumulative across all runs in the process).
// Per-run values are also returned on the result structs so callers can
// attribute them to one consensus execution.
var (
	byzDropsTotal = metrics.DefaultCounter("consensus_byzantine_drops_total")
	eigNodesTotal = metrics.DefaultCounter("consensus_eig_tree_nodes_total")
	eigRunsTotal  = metrics.DefaultCounter("broadcast_eig_runs_total")
	dsRunsTotal   = metrics.DefaultCounter("broadcast_ds_runs_total")
	eigTreeNodes  = metrics.DefaultHistogram("broadcast_eig_tree_nodes_per_run", metrics.CountBuckets())
)

// EIGBehavior customizes what a Byzantine process sends during EIG
// broadcast. The honest value it would have relayed is provided; the
// returned value is what it actually sends to the given recipient for the
// given tree node. Returning nil suppresses the send (a crash/silence on
// that edge). Calls come in instance, then path (lexicographic), then
// recipient order, so a behavior drawing from one RNG stream is
// reproducible; path is valid only for the duration of the call. The
// library copies the returned value into the body before the next call
// and never keeps it, so a behavior may return the same buffer every
// time.
type EIGBehavior interface {
	RelayValue(instance int, path []int, to int, honest []byte) []byte
}

// EIGBehaviorFunc adapts a function to EIGBehavior.
type EIGBehaviorFunc func(instance int, path []int, to int, honest []byte) []byte

// RelayValue implements EIGBehavior.
func (f EIGBehaviorFunc) RelayValue(instance int, path []int, to int, honest []byte) []byte {
	return f(instance, path, to, honest)
}

// MaxEIGLeafSlots bounds the leaf level of one process's EIG trees,
// n(n-1)...(n-f) slots: a level is one slice, so a larger tree does not
// fit in memory (n=40 f=13 would need about 2·10^21 slots).
const MaxEIGLeafSlots = 1 << 22

// CheckEIGTree refuses an all-to-all EIG broadcast (0 <= f < n) whose
// leaf level, n(n-1)...(n-f) slots per process, exceeds
// MaxEIGLeafSlots. The exact product stops at the limit, so it never
// overflows; the error gives the rest as a float.
func CheckEIGTree(n, f int) error {
	slots := 1
	for k := 0; k <= f; k++ {
		factor := n - k
		if slots > MaxEIGLeafSlots/factor {
			size := float64(slots)
			for ; k <= f; k++ {
				size *= float64(n - k)
			}
			return fmt.Errorf("broadcast: n=%d f=%d needs %.3g EIG leaf slots per process, over the %d limit", n, f, size, MaxEIGLeafSlots)
		}
		slots *= factor
	}
	return nil
}

// permutations is n(n-1)...(n-l+1): the slots of tree level l at a
// process, the l-permutations of the n process ids.
func permutations(n, l int) int {
	size := 1
	for k := 0; k < l; k++ {
		size *= n - k
	}
	return size
}

// eigLevel is level l of all n EIG trees at one process (one tree per
// commander). Slot g holds the node whose path is the g-th l-permutation
// of the process ids in lexicographic order: the commander is the
// leading element, so instance c owns the c-th n-th of the level, and
// the n-l children of slot g are slots g*(n-l) .. (g+1)*(n-l)-1 of
// level l+1, ascending by the appended id. Slot order is therefore the
// order of the big-endian encoded paths.
type eigLevel struct {
	vals  [][]byte // sub-slices of the delivered messages
	has   []bool   // an empty value is still a stored node
	count int      // stored nodes
	size  int      // total length of the stored values
}

// put stores val at slot g. It reads the old value only where has[g] is
// set, so a recycled leaf's stale values never count.
func (lv *eigLevel) put(g int, val []byte) {
	if lv.has[g] {
		lv.size -= len(lv.vals[g])
	} else {
		lv.has[g] = true
		lv.count++
	}
	lv.size += len(val)
	lv.vals[g] = val // a duplicate or conflicting copy overwrites: last one wins
}

// eigLeaves recycles leaf levels between deciding Steps: a leaf lives
// only inside the Step that decides (EIGNode.decide).
var eigLeaves sync.Pool

// getEIGLeaf returns an empty level of size slots for the leaf. Its vals
// may hold stale values, which put and resolve never read.
func getEIGLeaf(size int) *eigLevel {
	lv, _ := eigLeaves.Get().(*eigLevel)
	if lv == nil || cap(lv.has) < size {
		return &eigLevel{vals: make([][]byte, size), has: make([]bool, size)}
	}
	lv.vals, lv.has = lv.vals[:size], lv.has[:size]
	clear(lv.has)
	lv.count, lv.size = 0, 0
	return lv
}

// pathAt fills path with the len(path)-permutation of the n process ids
// of rank g: the path of slot g of level len(path).
func pathAt(n, g int, path []int) {
	for k := len(path) - 1; k >= 0; k-- {
		path[k] = g % (n - k)
		g /= n - k
	}
	// path[k] now counts the unused ids below element k; right to left,
	// re-insert each element into the numbering of those after it.
	for k := len(path) - 2; k >= 0; k-- {
		for j := k + 1; j < len(path); j++ {
			if path[j] >= path[k] {
				path[j]++
			}
		}
	}
}

// majority returns the value a strict majority of vals holds (a
// Boyer-Moore vote, then a verifying count); ties and absence fall to
// def. While vals[0] stays the candidate the vote also counts its
// matches, so the verifying pass runs only when the candidate changes:
// one comparison per value when a majority leads from the start.
func majority(vals [][]byte, def []byte) []byte {
	if len(vals) == 0 {
		return def
	}
	cand, votes, same := vals[0], 1, 1
	i := 1
	for ; i < len(vals) && votes > 0; i++ {
		if bytes.Equal(vals[i], cand) {
			votes++
			same++
		} else {
			votes--
		}
	}
	if i == len(vals) { // the candidate never changed: same is its count
		if 2*same > len(vals) {
			return cand
		}
		return def
	}
	for _, v := range vals[i:] {
		switch {
		case votes == 0:
			cand, votes = v, 1
		case bytes.Equal(v, cand):
			votes++
		default:
			votes--
		}
	}
	count := 0
	for _, v := range vals {
		if bytes.Equal(v, cand) {
			count++
		}
	}
	if 2*count > len(vals) {
		return cand
	}
	return def
}

// The EIG wire format. In round l-1 a process sends each peer one body
// listing its level-l nodes — the children, ending in the sender, of
// the level-(l-1) nodes without it — in slot order:
//
//	level u32 | first u32 | count u32 | entry*count
//	entry = len u32 | value    (len = eigAbsent: no value)
//
// An entry is absent when the sender does not hold the parent or its
// behaviour suppressed the send. Paths never travel: the receiver maps
// entry first+i of sender m.From to its slot through the level's plan.
// A body is cut at entry boundaries into messages of eigBodyCap bytes
// plus at most one entry, so none nears a transport frame limit, and a
// message whose entries are all absent is not sent.
const (
	eigTag       = "eig"
	eigHeaderLen = 12
	eigAbsent    = math.MaxUint32
	eigBodyCap   = 32 << 10
)

// eigPlan is the slot plan of one tree level l: for every sender s, the
// level-l nodes whose path ends in s, in slot order — the entries of s's
// body — as the parent's slot on level l-1 and the node's slot on level
// l. Sender s owns entries s*per .. (s+1)*per-1, per = (n-1)...(n-l+1).
type eigPlan struct {
	per           int
	parent, child []int32
}

// of returns sender s's entries.
func (pl *eigPlan) of(s int) (parent, child []int32) {
	lo, hi := s*pl.per, (s+1)*pl.per
	return pl.parent[lo:hi], pl.child[lo:hi]
}

func buildEIGPlan(n, l int) *eigPlan {
	parents := permutations(n, l-1)
	kids := n - l + 1 // children per parent
	per := parents * kids / n
	pl := &eigPlan{per: per, parent: make([]int32, n*per), child: make([]int32, n*per)}
	next := make([]int, n) // per sender: entries placed
	path := make([]int, l-1)
	used := make([]bool, n)
	for g := 0; g < parents; g++ {
		pathAt(n, g, path)
		clear(used)
		for _, id := range path {
			used[id] = true
		}
		digit := 0 // children of g ascend by the appended id
		for s, inPath := range used {
			if inPath {
				continue
			}
			k := s*per + next[s]
			next[s]++
			pl.parent[k], pl.child[k] = int32(g), int32(g*kids+digit)
			digit++
		}
	}
	return pl
}

// eigPlans shares the slot plans across machines and runs: a plan is
// immutable and depends on (n, level) only. The cache is dropped whole
// when a new plan would take it past eigPlanBudget entries.
var eigPlans struct {
	sync.Mutex
	byShape map[[2]int]*eigPlan
	entries int
}

const eigPlanBudget = 1 << 23

func eigPlanFor(n, l int) *eigPlan {
	eigPlans.Lock()
	defer eigPlans.Unlock()
	key := [2]int{n, l}
	if pl := eigPlans.byShape[key]; pl != nil {
		return pl
	}
	pl := buildEIGPlan(n, l)
	if eigPlans.byShape == nil || eigPlans.entries+len(pl.child) > eigPlanBudget {
		eigPlans.byShape, eigPlans.entries = make(map[[2]int]*eigPlan), 0
	}
	eigPlans.byShape[key] = pl
	eigPlans.entries += len(pl.child)
	return pl
}

// eigBody accumulates the body one recipient (sched.Broadcast for an
// honest sender) gets for one level and cuts it into messages.
type eigBody struct {
	to, level   int
	buf         []byte
	msg         int  // offset of the open message in buf
	first, next int  // entry index of the open message's first entry and of the next entry
	present     bool // the open message holds a value
}

var eigNoHeader [eigHeaderLen]byte

// add appends one entry (nil: absent), closing the open message onto
// outs once it reaches eigBodyCap.
func (b *eigBody) add(outs []sched.Outgoing, val []byte) []sched.Outgoing {
	if b.next == b.first {
		b.msg = len(b.buf)
		b.buf = append(b.buf, eigNoHeader[:]...)
	}
	if val == nil {
		b.buf = binary.BigEndian.AppendUint32(b.buf, eigAbsent)
	} else {
		b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(len(val)))
		b.buf = append(b.buf, val...)
		b.present = true
	}
	b.next++
	if len(b.buf)-b.msg >= eigBodyCap {
		outs = b.flush(outs)
	}
	return outs
}

// flush closes the open message onto outs, or discards it when it holds
// no value: the receiver reads a missing entry as an absent one.
func (b *eigBody) flush(outs []sched.Outgoing) []sched.Outgoing {
	if b.next == b.first {
		return outs
	}
	if b.present {
		h := b.buf[b.msg:]
		binary.BigEndian.PutUint32(h, uint32(b.level))
		binary.BigEndian.PutUint32(h[4:], uint32(b.first))
		binary.BigEndian.PutUint32(h[8:], uint32(b.next-b.first))
		end := len(b.buf)
		outs = append(outs, sched.Outgoing{To: b.to, Tag: eigTag, Data: b.buf[b.msg:end:end]})
	} else {
		b.buf = b.buf[:b.msg]
	}
	b.first, b.present = b.next, false
	return outs
}

// EIGNode is the per-process state machine of the all-to-all EIG
// broadcast: n parallel EIG instances (one per commander) at a single
// process — the "each process Byzantine-broadcasts its input" pattern
// of Algorithm ALGO Step 1. It implements sched.SyncProcess, so
// internal/transport.RunCluster drives it on the simulation, the mesh
// or, one node per machine, over TCP. Rounds are
// 0-based: round r delivers the level r+1 nodes (round 0 the
// commanders' sends); levels 1..f are relayed, level f+1 decides.
type EIGNode struct {
	n, f, self int
	input      []byte // this node's own input (commander value)
	defaultVal []byte
	behavior   EIGBehavior // nil for honest
	levels     []eigLevel  // the relayed levels[l-1], l <= f, allocated when round l-1 begins
	leafNodes  int         // leaf nodes stored: own relays once sent, all of them once decided
	path       []int       // scratch for the path a behavior is shown
	done       bool
	decided    [][]byte
	// drops counts sends this process's Byzantine behavior suppressed
	// (the lockstep engines are single-threaded per process, so a plain
	// int is safe).
	drops int
}

// NewEIGNode builds the EIG state machine for one process: id self out
// of n processes tolerating f < n faults, broadcasting input, optionally
// scripted by behavior (nil = honest), with defaultVal as the fallback
// when a majority resolution fails.
func NewEIGNode(n, f, self int, input []byte, behavior EIGBehavior, defaultVal []byte) *EIGNode {
	return &EIGNode{
		n: n, f: f, self: self, input: input, defaultVal: defaultVal, behavior: behavior,
		levels: make([]eigLevel, f), path: make([]int, eigDepth(f)),
	}
}

// Decided returns, after Done, this node's decided value per commander
// (Decided()[c] is the agreed broadcast value of commander c).
func (p *EIGNode) Decided() [][]byte { return p.decided }

// Drops returns the sends this node's Byzantine behavior suppressed.
func (p *EIGNode) Drops() int { return p.drops }

// TreeNodes returns the total EIG tree nodes stored across this node's
// instances — its share of the broadcast memory footprint.
func (p *EIGNode) TreeNodes() int {
	total := p.leafNodes
	for i := range p.levels {
		total += p.levels[i].count
	}
	return total
}

// level returns relayed level l (1-based, l <= f) of the trees,
// allocating its n(n-1)...(n-l+1) slots on first use.
func (p *EIGNode) level(l int) *eigLevel {
	lv := &p.levels[l-1]
	if lv.has == nil {
		size := permutations(p.n, l)
		lv.vals, lv.has = make([][]byte, size), make([]bool, size)
	}
	return lv
}

// Start implements sched.SyncProcess: round 1 of every instance, in
// which every process is commander of its own.
func (p *EIGNode) Start() []sched.Outgoing {
	return p.send(1, [][]byte{p.input}, []bool{true}, len(p.input))
}

// send stores and sends this process's level-l nodes: the child ending
// in self of every level-(l-1) node it holds (vals, has) and that does
// not contain it, walking the plan in slot order — instance, then path,
// then (for a behavior) recipient. size bounds the values' total length.
func (p *EIGNode) send(l int, vals [][]byte, has []bool, size int) []sched.Outgoing {
	var lv *eigLevel // nil for the leaf: the deciding Step stores own relays there
	if l <= p.f {
		lv = p.level(l)
	}
	parents, children := eigPlanFor(p.n, l).of(p.self)
	hint := eigHeaderLen*(1+size/eigBodyCap) + 4*len(parents) + size
	var outs []sched.Outgoing
	if p.behavior == nil {
		body := eigBody{to: sched.Broadcast, level: l, buf: make([]byte, 0, hint)}
		for i, g := range parents {
			v := vals[g]
			if has[g] {
				p.keep(lv, children[i], v)
				if v == nil { // a nil input is a process with nothing to say
					p.drops += p.n - 1
				}
			}
			outs = body.add(outs, v)
		}
		return body.flush(outs)
	}
	bodies := make([]eigBody, 0, p.n-1)
	for to := 0; to < p.n; to++ {
		if to != p.self {
			bodies = append(bodies, eigBody{to: to, level: l, buf: make([]byte, 0, hint)})
		}
	}
	path := p.path[:l]
	for i, g := range parents {
		if !has[g] {
			for k := range bodies {
				outs = bodies[k].add(outs, nil)
			}
			continue
		}
		p.keep(lv, children[i], vals[g])
		pathAt(p.n, int(children[i]), path)
		for k := range bodies {
			v := p.behavior.RelayValue(path[0], path, bodies[k].to, vals[g])
			if v == nil {
				p.drops++
			}
			outs = bodies[k].add(outs, v)
		}
	}
	for k := range bodies {
		outs = bodies[k].flush(outs)
	}
	return outs
}

// keep records this process's own honest relay v as slot g of level lv,
// so the resolve majority sees the self-child too; on the leaf (lv nil)
// it only counts it.
func (p *EIGNode) keep(lv *eigLevel, g int32, v []byte) {
	if lv == nil {
		p.leafNodes++
		return
	}
	lv.put(int(g), v)
}

// receive stores the entries of one delivered message as sender
// m.From's level-l nodes. A message that does not parse exactly — tag,
// sender, header, every entry, no trailing byte — is a Byzantine
// sender's and is dropped whole.
func (p *EIGNode) receive(lv *eigLevel, plan *eigPlan, l int, m *sched.Message) {
	if m.Tag != eigTag || m.From < 0 || m.From >= p.n || m.From == p.self || len(m.Data) < eigHeaderLen {
		return
	}
	_, children := plan.of(m.From)
	level := binary.BigEndian.Uint32(m.Data)
	first := uint64(binary.BigEndian.Uint32(m.Data[4:]))
	count := uint64(binary.BigEndian.Uint32(m.Data[8:]))
	if uint64(l) != uint64(level) || count == 0 || first+count > uint64(len(children)) {
		return
	}
	entries := m.Data[eigHeaderLen:]
	rest := entries
	for k := uint64(0); k < count; k++ {
		if len(rest) < 4 {
			return
		}
		size := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if size == eigAbsent {
			continue
		}
		if uint64(len(rest)) < uint64(size) {
			return
		}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return
	}
	rest = entries
	for _, c := range children[first : first+count] {
		size := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if size != eigAbsent {
			lv.put(int(c), rest[:size:size])
			rest = rest[size:]
		}
	}
}

// Step implements sched.SyncProcess: store the delivered tree nodes,
// relay the next level or decide.
func (p *EIGNode) Step(round int, delivered []sched.Message) []sched.Outgoing {
	level := round + 1
	if level < 1 {
		return nil
	}
	if level > p.f {
		p.decide(level, delivered)
		return nil
	}
	lv, plan := p.level(level), eigPlanFor(p.n, level)
	for i := range delivered {
		p.receive(lv, plan, level, &delivered[i])
	}
	return p.send(level+1, lv.vals, lv.has, lv.size)
}

// decide gathers the leaf level in scratch — this process's own relays
// of level f, then the round's deliveries — resolves every instance and
// keeps only the n decisions, which alias the delivered messages. The
// leaf is taken and returned within this one Step: all n machines of an
// engine sit between rounds f-1 and f together, so a leaf held across
// Steps would be n leaves alive at once.
func (p *EIGNode) decide(level int, delivered []sched.Message) {
	depth := eigDepth(p.f)
	leaf := getEIGLeaf(permutations(p.n, depth))
	plan := eigPlanFor(p.n, depth)
	if p.f == 0 {
		leaf.put(p.self, p.input)
	} else if lv := &p.levels[p.f-1]; lv.has != nil {
		parents, children := plan.of(p.self)
		for i, g := range parents {
			if lv.has[g] {
				leaf.put(int(children[i]), lv.vals[g])
			}
		}
	}
	if level == depth {
		for i := range delivered {
			p.receive(leaf, plan, level, &delivered[i])
		}
	}
	p.decided = append(make([][]byte, 0, p.n), p.resolve(leaf)...)
	p.decided[p.self] = p.input
	p.leafNodes = leaf.count
	eigLeaves.Put(leaf)
	p.done = true
}

// resolve computes every instance's recursive majority in one bottom-up
// pass: the leaf level (absent leaves read as the default) is folded in
// place, each parent's result written over the first slot of the child
// blocks already consumed, until one value per commander is left.
func (p *EIGNode) resolve(leaf *eigLevel) [][]byte {
	vals := leaf.vals
	for g, has := range leaf.has {
		if !has {
			vals[g] = p.defaultVal
		}
	}
	for l := p.f; l >= 1; l-- {
		kids := p.n - l
		parents := len(vals) / kids
		for g := 0; g < parents; g++ {
			vals[g] = majority(vals[g*kids:(g+1)*kids], p.defaultVal)
		}
		vals = vals[:parents]
	}
	return vals
}

// Done implements sched.SyncProcess.
func (p *EIGNode) Done() bool { return p.done }

// Node is one process's machine of an all-to-all broadcast: an
// EIGNode (oral messages) or a DSNode (signed).
type Node interface {
	sched.SyncProcess
	Decided() [][]byte // after Done: the agreed value of every commander
	Drops() int
}

// CountRun publishes one finished all-to-all broadcast into the
// registry — the single place its counters move, whichever plane drove
// the machines — and returns the suppressed sends and the EIG tree size
// summed over nodes (nil entries, machines a peer process ran, are
// skipped).
func CountRun(nodes []Node) (drops, treeNodes int) {
	signed := false
	for _, nd := range nodes {
		switch nd := nd.(type) {
		case *EIGNode:
			drops += nd.drops
			treeNodes += nd.TreeNodes()
		case *DSNode:
			drops += nd.Drops()
			signed = true
		}
	}
	byzDropsTotal.Add(int64(drops))
	if signed {
		dsRunsTotal.Inc()
		return drops, 0
	}
	eigRunsTotal.Inc()
	eigNodesTotal.Add(int64(treeNodes))
	eigTreeNodes.Observe(float64(treeNodes))
	return drops, treeNodes
}
