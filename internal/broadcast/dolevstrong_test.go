package broadcast

import (
	"encoding/binary"
	"runtime"
	"testing"

	"relaxedbvc/internal/sched"
)

// dsBody builds a "ds" body from a commander prefix and raw chain fields,
// so a test can craft what no honest sender emits.
func dsBody(commander uint32, value []byte, signers []int, sigs [][]byte, nsig uint32) []byte {
	b := binary.BigEndian.AppendUint32(nil, commander)
	b = AppendField(b, value)
	b = binary.BigEndian.AppendUint16(b, uint16(len(signers)))
	for _, id := range signers {
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	b = binary.BigEndian.AppendUint32(b, nsig)
	for _, s := range sigs {
		b = AppendField(b, s)
	}
	return b
}

// signedBy is the chain value v signed by signers in turn, honestly.
func signedBy(s *SigScheme, v []byte, signers ...int) [][]byte {
	sigs := make([][]byte, len(signers))
	for k, id := range signers {
		sigs[k] = s.Sign(id, dsPayload(v, signers[:k]))
	}
	return sigs
}

// dsAccepted is how many chains node 0's instances accepted beyond its
// own input.
func dsAccepted(p *DSNode) int {
	total := -1
	for c := range p.inst {
		total += len(p.inst[c].accepted)
	}
	return total
}

func TestDSStepDropsCraftedMessages(t *testing.T) {
	// One Byzantine peer must not crash an honest node, make it allocate
	// what it was not sent, or have a chain accepted that Dolev-Strong
	// rejects. Each message goes to a fresh n=4 f=2 node 0.
	const n, f = 4, 2
	scheme := NewSigScheme(n, 5)
	v := []byte("v")
	ok1 := signedBy(scheme, v, 1)
	ok12 := signedBy(scheme, v, 1, 2)
	bad70 := append(signedBy(scheme, v, 1), make([]byte, 32))
	cases := []struct {
		name     string
		round    int
		data     []byte
		accepted int
	}{
		{"valid, commander 1", 0, dsBody(1, v, []int{1}, ok1, 1), 1},
		{"valid, relayed by 2", 1, dsBody(1, v, []int{1, 2}, ok12, 2), 1},
		{"too few signatures for the round", 1, dsBody(1, v, []int{1}, ok1, 1), 0},
		{"commander prefix n", 0, dsBody(n, v, []int{1}, ok1, 1), 0},
		{"commander prefix 2^32-1", 0, dsBody(0xffffffff, v, []int{1}, ok1, 1), 0},
		{"prefix names another commander", 0, dsBody(2, v, []int{1}, ok1, 1), 0},
		{"short prefix", 0, []byte{0, 0, 1}, 0},
		{"signature count 2^31-1", 0, dsBody(1, nil, nil, nil, 0x7fffffff), 0},
		{"signature count past the bytes", 0, dsBody(1, v, []int{1}, ok1, 3), 0},
		{"signer id 70", 1, dsBody(1, v, []int{1, 70}, bad70, 2), 0},
		{"chain longer than n", 4, dsBody(1, v, []int{1, 2, 3, 0, 1}, nil, 0), 0},
		{"repeated signer", 1, dsBody(1, v, []int{1, 1}, signedBy(scheme, v, 1, 1), 2), 0},
		{"forged signature", 0, dsBody(1, v, []int{1}, signedBy(scheme, v, 2), 1), 0},
		{"fewer signatures than signers", 1, dsBody(1, v, []int{1, 2}, ok1, 1), 0},
		{"truncated signature", 0, dsBody(1, v, []int{1}, ok1, 1)[:20], 0},
		{"no data", 0, nil, 0},
	}
	for _, c := range cases {
		p := NewDSNode(n, f, 0, []byte("in"), scheme, nil, []byte("def"))
		p.Start()
		p.Step(c.round, []sched.Message{{From: 2, To: 0, Tag: dsTag, Data: c.data}})
		if got := dsAccepted(p); got != c.accepted {
			t.Errorf("%s: accepted %d chains, want %d", c.name, got, c.accepted)
		}
	}
}

// FuzzDSStep feeds one arbitrary "ds" body, at an arbitrary round, to an
// honest node: no input may panic it or make it allocate far beyond the
// body's length (a signature count must not size a slice unchecked).
func FuzzDSStep(f *testing.F) {
	const n, faults = 4, 2
	scheme := NewSigScheme(n, 5)
	v := []byte("value")
	f.Add(0, dsBody(1, v, []int{1}, signedBy(scheme, v, 1), 1))
	f.Add(1, dsBody(1, v, []int{1, 3}, signedBy(scheme, v, 1, 3), 2))
	f.Add(2, dsBody(3, v, []int{3, 1, 2}, signedBy(scheme, v, 3, 1, 2), 3))
	f.Add(0, dsBody(1, nil, nil, nil, 0x7fffffff))
	f.Add(1, dsBody(1, v, []int{1, 70}, append(signedBy(scheme, v, 1), v), 2))
	f.Add(0, dsBody(9, v, []int{1}, signedBy(scheme, v, 1), 1))
	f.Add(0, []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, round int, data []byte) {
		p := NewDSNode(n, faults, 0, []byte("in"), scheme, nil, []byte("def"))
		p.Start()
		if round < 0 || round > faults {
			round = 0
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Step(round, []sched.Message{{From: 1, To: 0, Tag: dsTag, Data: data}})
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10+16*uint64(len(data)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(data), grown)
		}
	})
}
