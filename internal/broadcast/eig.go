package broadcast

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
// reproducible; path is valid only for the duration of the call.
type EIGBehavior interface {
	RelayValue(instance int, path []int, to int, honest []byte) []byte
}

// EIGBehaviorFunc adapts a function to EIGBehavior.
type EIGBehaviorFunc func(instance int, path []int, to int, honest []byte) []byte

// RelayValue implements EIGBehavior.
func (f EIGBehaviorFunc) RelayValue(instance int, path []int, to int, honest []byte) []byte {
	return f(instance, path, to, honest)
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

func (lv *eigLevel) put(g int, val []byte) {
	if !lv.has[g] {
		lv.has[g] = true
		lv.count++
	}
	lv.size += len(val) - len(lv.vals[g])
	lv.vals[g] = val // a duplicate or conflicting copy overwrites: last one wins
}

// slotOf returns the rank of path among the len(path)-permutations of
// the n process ids; ok=false if an id is out of range or repeated.
func slotOf(n int, path []int) (g int, ok bool) {
	for k, id := range path {
		if id < 0 || id >= n {
			return 0, false
		}
		digit := id // ids below id not used by path[:k]
		for _, earlier := range path[:k] {
			if earlier == id {
				return 0, false
			}
			if earlier < id {
				digit--
			}
		}
		g = g*(n-k) + digit
	}
	return g, true
}

// pathAt is the inverse of slotOf: it fills path with the
// len(path)-permutation of rank g.
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

// majority returns the value a strict majority of vals holds (Boyer-Moore
// vote, then a verifying count); ties and absence fall to def.
func majority(vals [][]byte, def []byte) []byte {
	var cand []byte
	votes := 0
	for _, v := range vals {
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

// EIGNode is the per-process state machine of the all-to-all EIG
// broadcast: n parallel EIG instances (one per commander) at a single
// process — the "each process Byzantine-broadcasts its input" pattern
// of Algorithm ALGO Step 1. It implements sched.SyncProcess, so the
// same state machine can be driven by the simulated lockstep engine
// (RunAllToAllEIG) or, one node per machine, by a distributed lockstep
// runner over a real transport (internal/transport.RunSync). Rounds are
// 0-based: round r delivers the level r+1 nodes (round 0 the
// commanders' sends); levels 1..f are relayed, level f+1 decides.
type EIGNode struct {
	n, f, self int
	input      []byte // this node's own input (commander value)
	defaultVal []byte
	behavior   EIGBehavior // nil for honest
	levels     []eigLevel  // levels[l-1], allocated when round l-1 begins
	path       []int       // scratch for the path being parsed or relayed
	arena      []byte      // the current Step's message bodies
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
		levels: make([]eigLevel, eigDepth(f)), path: make([]int, eigDepth(f)),
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
	total := 0
	for i := range p.levels {
		total += p.levels[i].count
	}
	return total
}

// level returns level l (1-based) of the trees, allocating its
// n(n-1)...(n-l+1) slots on first use.
func (p *EIGNode) level(l int) *eigLevel {
	lv := &p.levels[l-1]
	if lv.has == nil {
		size := 1
		for k := 0; k < l; k++ {
			size *= p.n - k
		}
		lv.vals, lv.has = make([][]byte, size), make([]bool, size)
	}
	return lv
}

// encode appends the wire form of tree node path with value v —
// three length-prefixed fields: instance byte, encoded path, value — to
// the arena and returns it. A full arena is replaced, never regrown, so
// bodies already handed out stay put.
func (p *EIGNode) encode(path []int, v []byte) []byte {
	size := 4 + 1 + 4 + 2 + 2*len(path) + 4 + len(v)
	if cap(p.arena)-len(p.arena) < size {
		p.arena = make([]byte, 0, max(size, 2*cap(p.arena)))
	}
	start := len(p.arena)
	b := appendBytes(p.arena, []byte{byte(path[0])})
	b = binary.BigEndian.AppendUint32(b, uint32(2+2*len(path)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(path)))
	for _, id := range path {
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	p.arena = appendBytes(b, v)
	return p.arena[start:len(p.arena):len(p.arena)]
}

// sendNode appends the sends of tree node path (self already appended)
// to outs: one broadcast of the honest value, or whatever the Byzantine
// behavior hands each recipient.
func (p *EIGNode) sendNode(outs []sched.Outgoing, path []int, honest []byte) []sched.Outgoing {
	if p.behavior == nil {
		if honest == nil { // a nil input is a process with nothing to say
			p.drops += p.n - 1
			return outs
		}
		return append(outs, sched.Outgoing{To: sched.Broadcast, Tag: "eig", Data: p.encode(path, honest)})
	}
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		v := p.behavior.RelayValue(path[0], path, to, honest)
		if v == nil {
			p.drops++
			continue
		}
		outs = append(outs, sched.Outgoing{To: to, Tag: "eig", Data: p.encode(path, v)})
	}
	return outs
}

// Start implements sched.SyncProcess: round 1 of every instance, in
// which every process is commander of its own.
func (p *EIGNode) Start() []sched.Outgoing {
	path := p.path[:1]
	path[0] = p.self
	p.level(1).put(p.self, p.input)
	return p.sendNode(nil, path, p.input)
}

// parse validates one delivered message as a level-len(path) tree node
// and returns its slot and value. The path must have exactly that
// length, start at the instance's commander, end at the actual sender
// (honest enforcement of the relay discipline) and name distinct
// processes; anything else is a Byzantine sender's and is dropped.
func (p *EIGNode) parse(m *sched.Message, path []int) (slot int, val []byte, ok bool) {
	if m.Tag != "eig" {
		return 0, nil, false
	}
	instB, rest, err := readBytes(m.Data)
	if err != nil || len(instB) != 1 {
		return 0, nil, false
	}
	pathB, rest, err := readBytes(rest)
	if err != nil || len(pathB) < 2+2*len(path) || int(binary.BigEndian.Uint16(pathB)) != len(path) {
		return 0, nil, false
	}
	if val, _, err = readBytes(rest); err != nil {
		return 0, nil, false
	}
	for k := range path {
		path[k] = int(binary.BigEndian.Uint16(pathB[2+2*k:]))
	}
	if path[0] != int(instB[0]) || path[len(path)-1] != m.From {
		return 0, nil, false
	}
	slot, ok = slotOf(p.n, path)
	return slot, val, ok
}

// Step implements sched.SyncProcess: store the delivered tree nodes,
// relay the next level or decide.
func (p *EIGNode) Step(round int, delivered []sched.Message) []sched.Outgoing {
	level := round + 1
	if level < 1 {
		return nil
	}
	if level <= eigDepth(p.f) {
		lv, path := p.level(level), p.path[:level]
		for i := range delivered {
			if slot, val, ok := p.parse(&delivered[i], path); ok {
				lv.put(slot, val)
			}
		}
	}
	if level <= p.f {
		return p.relay(level)
	}
	// Gathering complete: decide every instance.
	p.decided = p.resolve()
	p.decided[p.self] = p.input
	p.done = true
	return nil
}

// relay sends node path+[self] for every stored level-l node whose path
// does not contain self, walking the slots in order — instance, then
// path, then (in sendNode) recipient.
func (p *EIGNode) relay(l int) []sched.Outgoing {
	lv, next := p.level(l), p.level(l+1)
	path := p.path[:l+1]
	fanout := 1
	if p.behavior != nil {
		fanout = p.n - 1
	}
	outs := make([]sched.Outgoing, 0, lv.count*fanout)
	p.arena = make([]byte, 0, fanout*(lv.count*(4+1+4+2+2*len(path)+4)+lv.size))
	for g, has := range lv.has {
		if !has {
			continue
		}
		pathAt(p.n, g, path[:l])
		path[l] = p.self
		child, ok := slotOf(p.n, path)
		if !ok {
			continue // the path already contains self
		}
		// A process knows its own honest relay: store it locally so the
		// resolve majority sees the self-child too.
		next.put(child, lv.vals[g])
		outs = p.sendNode(outs, path, lv.vals[g])
	}
	return outs
}

// resolve computes every instance's recursive majority in one bottom-up
// pass: the leaf level (absent leaves read as the default) is folded in
// place, each parent's result written over the first slot of the child
// blocks already consumed, until one value per commander is left.
func (p *EIGNode) resolve() [][]byte {
	leaf := p.level(eigDepth(p.f))
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

// AllToAllResult is the outcome of an all-to-all EIG broadcast.
type AllToAllResult struct {
	// Decided[i][c] is process i's decided value for commander c
	// (nil rows for Byzantine processes, whose decisions are meaningless).
	Decided [][][]byte
	Rounds  int
	// Messages is the total number of point-to-point messages delivered.
	Messages int
	// Drops is the number of sends suppressed by Byzantine behaviors
	// (returning nil from RelayValue) relative to honest relaying.
	Drops int
	// TreeNodes is the total number of EIG tree nodes stored across all
	// processes and instances — the memory footprint of the broadcast.
	TreeNodes int
	// Faults counts injected link-fault events (when faults were given).
	Faults sched.FaultStats
}

// RunAllToAllEIG has every process Byzantine-broadcast its input to all
// others using parallel EIG instances (f+1 rounds). behaviors maps
// Byzantine process ids to their behavior; all other processes are
// honest. defaultVal is the fallback value used when majority fails.
// faults (may be nil) injects seeded link faults; patterns beyond
// duplication break lockstep synchrony and surface as errors wrapping
// sched.ErrDeliveryViolated.
//
// Correctness (agreement on every instance and validity for honest
// commanders) requires n >= 3f+1.
func RunAllToAllEIG(n, f int, inputs [][]byte, behaviors map[int]EIGBehavior, defaultVal []byte, faults *sched.LinkFaults, trace ...func(sched.Message)) (*AllToAllResult, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("broadcast: %d inputs for %d processes", len(inputs), n)
	}
	if len(behaviors) > f {
		return nil, fmt.Errorf("broadcast: %d Byzantine processes exceeds f=%d", len(behaviors), f)
	}
	if f >= n {
		return nil, fmt.Errorf("broadcast: f=%d faults among n=%d processes", f, n)
	}
	procs := make([]sched.SyncProcess, n)
	eps := make([]*EIGNode, n)
	for i := 0; i < n; i++ {
		ep := NewEIGNode(n, f, i, inputs[i], behaviors[i], defaultVal)
		eps[i] = ep
		procs[i] = ep
	}
	eng := sched.NewSyncEngine(procs)
	eng.Faults = faults
	if len(trace) > 0 {
		eng.TraceFn = trace[0]
	}
	rounds, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &AllToAllResult{Rounds: rounds, Messages: eng.Messages, Faults: eng.FaultStats}
	res.Decided = make([][][]byte, n)
	for i, ep := range eps {
		res.Decided[i] = ep.decided
	}
	res.Drops, res.TreeNodes = CountEIGRun(eps)
	return res, nil
}

// CountEIGRun publishes one finished all-to-all broadcast into the
// registry — the single place its counters move, whichever plane drove
// the machines — and returns the suppressed sends and the tree size
// summed over nodes (nil entries, machines a peer process ran, are
// skipped).
func CountEIGRun(nodes []*EIGNode) (drops, treeNodes int) {
	for _, ep := range nodes {
		if ep != nil {
			drops += ep.drops
			treeNodes += ep.TreeNodes()
		}
	}
	eigRunsTotal.Inc()
	byzDropsTotal.Add(int64(drops))
	eigNodesTotal.Add(int64(treeNodes))
	eigTreeNodes.Observe(float64(treeNodes))
	return drops, treeNodes
}
