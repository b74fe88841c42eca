package broadcast

import (
	"bytes"
	"encoding/binary"

	"relaxedbvc/internal/sched"
)

// refEIGNode is the all-to-all EIG machine this package shipped before
// the level bodies: one message per tree node and recipient, each
// carrying a one-byte instance field, the encoded path and the value,
// parsed back through slotOf. It is kept as the referee of
// TestEIGMatchesReference (in the external test package, which drives
// it with internal/adversary's behaviours through RefEIGNode).
type refEIGNode struct {
	n, f, self int
	input      []byte
	defaultVal []byte
	behavior   EIGBehavior
	levels     []eigLevel
	path       []int
	arena      []byte
	done       bool
	decided    [][]byte
	drops      int
}

// RefEIGNode exports the referee to the external test package.
type RefEIGNode = refEIGNode

// NewRefEIGNode builds the referee with NewEIGNode's arguments.
func NewRefEIGNode(n, f, self int, input []byte, behavior EIGBehavior, defaultVal []byte) *RefEIGNode {
	return &refEIGNode{
		n: n, f: f, self: self, input: input, defaultVal: defaultVal, behavior: behavior,
		levels: make([]eigLevel, eigDepth(f)), path: make([]int, eigDepth(f)),
	}
}

func (p *refEIGNode) Decided() [][]byte { return p.decided }

func (p *refEIGNode) Drops() int { return p.drops }

func (p *refEIGNode) Done() bool { return p.done }

func (p *refEIGNode) TreeNodes() int {
	total := 0
	for i := range p.levels {
		total += p.levels[i].count
	}
	return total
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

func (p *refEIGNode) level(l int) *eigLevel {
	lv := &p.levels[l-1]
	if lv.has == nil {
		size := permutations(p.n, l)
		lv.vals, lv.has = make([][]byte, size), make([]bool, size)
	}
	return lv
}

func (p *refEIGNode) encode(path []int, v []byte) []byte {
	size := 4 + 1 + 4 + 2 + 2*len(path) + 4 + len(v)
	if cap(p.arena)-len(p.arena) < size {
		p.arena = make([]byte, 0, max(size, 2*cap(p.arena)))
	}
	start := len(p.arena)
	b := AppendField(p.arena, []byte{byte(path[0])})
	b = binary.BigEndian.AppendUint32(b, uint32(2+2*len(path)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(path)))
	for _, id := range path {
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	p.arena = AppendField(b, v)
	return p.arena[start:len(p.arena):len(p.arena)]
}

func (p *refEIGNode) sendNode(outs []sched.Outgoing, path []int, honest []byte) []sched.Outgoing {
	if p.behavior == nil {
		if honest == nil {
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

func (p *refEIGNode) Start() []sched.Outgoing {
	path := p.path[:1]
	path[0] = p.self
	p.level(1).put(p.self, p.input)
	return p.sendNode(nil, path, p.input)
}

func (p *refEIGNode) parse(m *sched.Message, path []int) (slot int, val []byte, ok bool) {
	if m.Tag != "eig" {
		return 0, nil, false
	}
	instB, rest, err := ReadField(m.Data)
	if err != nil || len(instB) != 1 {
		return 0, nil, false
	}
	pathB, rest, err := ReadField(rest)
	if err != nil || len(pathB) < 2+2*len(path) || int(binary.BigEndian.Uint16(pathB)) != len(path) {
		return 0, nil, false
	}
	if val, _, err = ReadField(rest); err != nil {
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

func (p *refEIGNode) Step(round int, delivered []sched.Message) []sched.Outgoing {
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
	p.decided = p.resolve()
	p.decided[p.self] = p.input
	p.done = true
	return nil
}

func (p *refEIGNode) relay(l int) []sched.Outgoing {
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
			continue
		}
		next.put(child, lv.vals[g])
		outs = p.sendNode(outs, path, lv.vals[g])
	}
	return outs
}

func (p *refEIGNode) resolve() [][]byte {
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
			vals[g] = refMajority(vals[g*kids:(g+1)*kids], p.defaultVal)
		}
		vals = vals[:parents]
	}
	return vals
}

// refMajority is the two-pass majority the one-pass vote replaced, kept
// as its referee: a Boyer-Moore vote over every value, then a verifying
// count over every value.
func refMajority(vals [][]byte, def []byte) []byte {
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
