package broadcast

import (
	"math/rand"
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
