package broadcast

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"relaxedbvc/internal/sched"
)

// Decoders must reject (never panic on) arbitrary byte garbage — the
// network layer hands Byzantine-crafted payloads straight to them.

func TestDecodeVecNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	f := func() bool {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		defer func() {
			if recover() != nil {
				t.Fatal("DecodeVec panicked")
			}
		}()
		DecodeVec(b) // result irrelevant; must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeChainNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	for i := 0; i < 300; i++ {
		b := make([]byte, rng.Intn(96))
		rng.Read(b)
		func() {
			defer func() {
				if recover() != nil {
					t.Fatal("decodeChain panicked")
				}
			}()
			decodeChain(b, 8)
		}()
	}
}

func TestDecodeRBCNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	for i := 0; i < 300; i++ {
		b := make([]byte, rng.Intn(96))
		rng.Read(b)
		func() {
			defer func() {
				if recover() != nil {
					t.Fatal("decodeRBC panicked")
				}
			}()
			decodeRBC(b)
		}()
	}
}

func TestBrachaHandleGarbage(t *testing.T) {
	// Feeding garbage network messages to the RBC state machine must be a
	// no-op (no sends, no deliveries, no panic).
	rng := rand.New(rand.NewSource(214))
	bs := NewBrachaState(4, 1, 0)
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		outs := bs.Handle(sched.Message{From: 1 + rng.Intn(3), To: 0, Tag: BrachaTag, Data: b})
		// Garbage may occasionally parse as a valid-looking echo/ready
		// for a random instance; that is harmless, but it must never
		// produce a delivery (thresholds unreachable from one message).
		_ = outs
	}
	if len(bs.TakeDeliveries()) != 0 {
		t.Fatal("garbage produced a delivery")
	}
}

func TestEIGProcessIgnoresGarbageMessages(t *testing.T) {
	// A full EIG run where the Byzantine process sends undecodable bytes:
	// agreement and validity must still hold (covered elsewhere), and no
	// panic may occur even when garbage arrives with the eig tag but a
	// mangled body. Here we inject raw garbage directly.
	rng := rand.New(rand.NewSource(215))
	ep := NewEIGNode(4, 1, 0, []byte("a"), nil, []byte("def"))
	ep.Start()
	var msgs []sched.Message
	for i := 0; i < 100; i++ {
		b := make([]byte, rng.Intn(48))
		rng.Read(b)
		msgs = append(msgs, sched.Message{From: 1 + rng.Intn(3), To: 0, Tag: "eig", Data: b})
	}
	defer func() {
		if recover() != nil {
			t.Fatal("eigProcess panicked on garbage")
		}
	}()
	ep.Step(0, msgs)
}

// Property: the signature scheme is deterministic and binding across
// random messages.
func TestPropertySignatureBinding(t *testing.T) {
	rng := rand.New(rand.NewSource(216))
	scheme := NewSigScheme(4, 99)
	f := func() bool {
		m1 := make([]byte, 1+rng.Intn(32))
		rng.Read(m1)
		id := rng.Intn(4)
		sig := scheme.Sign(id, m1)
		if !scheme.Verify(id, m1, sig) {
			return false
		}
		// Any single-byte perturbation must invalidate.
		m2 := append([]byte(nil), m1...)
		m2[rng.Intn(len(m2))] ^= 0xFF
		return !scheme.Verify(id, m2, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzBrachaBody hands a 4-process component holding live instances
// arbitrary bytes after the body marker, from an arbitrary origin. It
// must not panic. A body that fails framing — an origin that is no peer,
// a byte that is not part of a whole ECHO/READY, an INIT, a sender that
// is no process — must leave the instances, the deliveries and the
// pending votes as they were; a body that frames must act exactly as its
// votes sent one message each.
//
// Run with: go test -run=^$ -fuzz=FuzzBrachaBody ./internal/broadcast
func FuzzBrachaBody(f *testing.F) {
	const n = 4
	v, w := EncodeVec([]float64{1}), EncodeVec([]float64{2})
	echo, ready := encodeRBC(rbcEcho, 1, EpochID(0), v), encodeRBC(rbcReady, 1, EpochID(0), v)
	f.Add(2, append(echo, ready...))
	f.Add(2, append(append(echo, encodeRBC(rbcEcho, 2, EpochID(1), w)...), encodeRBC(rbcReady, 1, EpochID(0), w)...))
	f.Add(3, append(echo, encodeRBC(rbcInit, 3, EpochID(0), v)...))
	f.Add(2, append(echo, encodeRBC(rbcEcho, n, EpochID(0), v)...))
	f.Add(2, append(echo, 0))
	f.Add(2, echo[:len(echo)-1])
	f.Add(2, []byte{})
	f.Add(0, echo)
	f.Add(n, echo)
	// primed is a component with process 1's instance open, echoed and
	// readied by process 3, and its own ECHO pending.
	primed := func() *BrachaState {
		b := NewBrachaState(n, 1, 0)
		b.Receive(1, EncodeInit(1, EpochID(0), v), nil)
		b.Receive(3, echo, nil)
		b.Receive(3, ready, nil)
		return b
	}
	f.Fuzz(func(t *testing.T, from int, entries []byte) {
		body, single := primed(), primed()
		instances := func(b *BrachaState) (k int) {
			b.PruneInstances(func(int, string) bool { k++; return false })
			return k
		}
		before := instances(body)
		body.Receive(from, append([]byte{rbcBody}, entries...), nil)
		if !bodyFrames(from, entries) {
			if instances(body) != before || len(body.deliveries) != len(single.deliveries) || !bytes.Equal(body.votes, single.votes) {
				t.Fatalf("a body that fails framing changed the component: %d -> %d instances, %d deliveries, votes %x",
					before, instances(body), len(body.deliveries), body.votes)
			}
			return
		}
		for rest := entries; len(rest) > 0; {
			_, _, _, _, next, _ := decodeRBC(rest)
			single.Receive(from, rest[:len(rest)-len(next)], nil)
			rest = next
		}
		if g, w := body.TakeVotes(), single.TakeVotes(); !bytes.Equal(g, w) {
			t.Fatalf("body votes %x, one message each %x", g, w)
		}
		if g, w := body.TakeDeliveries(), single.TakeDeliveries(); !reflect.DeepEqual(g, w) {
			t.Fatalf("body delivered %v, one message each %v", g, w)
		}
	})
}

// bodyFrames is the body framing rule restated: a peer's non-empty run
// of whole ECHO/READY messages naming processes, nothing after them.
func bodyFrames(from int, body []byte) bool {
	const n, self = 4, 0
	if from < 0 || from >= n || from == self || len(body) == 0 {
		return false
	}
	for len(body) > 0 {
		if len(body) < 3 || (body[0] != rbcEcho && body[0] != rbcReady) || int(body[1])<<8|int(body[2]) >= n {
			return false
		}
		_, rest, err := ReadField(body[3:])
		if err == nil {
			_, rest, err = ReadField(rest)
		}
		if err != nil {
			return false
		}
		body = rest
	}
	return true
}
