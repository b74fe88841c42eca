package adversary

import (
	"bytes"
	"math/rand"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/vec"
)

func TestSilent(t *testing.T) {
	if Silent().RelayValue(0, []int{0}, 1, []byte("x")) != nil {
		t.Error("Silent sent something")
	}
}

func TestHonest(t *testing.T) {
	if got := Honest().RelayValue(0, nil, 1, []byte("h")); !bytes.Equal(got, []byte("h")) {
		t.Error("Honest deviated")
	}
}

func TestFixedVector(t *testing.T) {
	b := FixedVector(vec.Of(1, 2))
	got, err := broadcast.DecodeVec(b.RelayValue(0, nil, 3, []byte("x")))
	if err != nil || !got.Equal(vec.Of(1, 2)) {
		t.Errorf("FixedVector = %v (%v)", got, err)
	}
}

func TestEquivocator(t *testing.T) {
	b := Equivocator(vec.Of(1), vec.Of(2))
	even, _ := broadcast.DecodeVec(b.RelayValue(0, nil, 0, nil))
	odd, _ := broadcast.DecodeVec(b.RelayValue(0, nil, 1, nil))
	if !even.Equal(vec.Of(1)) || !odd.Equal(vec.Of(2)) {
		t.Errorf("Equivocator even=%v odd=%v", even, odd)
	}
}

func TestPerRecipient(t *testing.T) {
	b := PerRecipient(map[int]vec.V{2: vec.Of(7)})
	got, _ := broadcast.DecodeVec(b.RelayValue(0, nil, 2, []byte("h")))
	if !got.Equal(vec.Of(7)) {
		t.Errorf("PerRecipient = %v", got)
	}
	if !bytes.Equal(b.RelayValue(0, nil, 1, []byte("h")), []byte("h")) {
		t.Error("PerRecipient fallback not honest")
	}
}

func TestRandomLiarDeterministic(t *testing.T) {
	a := RandomLiar(5, 3, 1).RelayValue(0, nil, 0, nil)
	b := RandomLiar(5, 3, 1).RelayValue(0, nil, 0, nil)
	if !bytes.Equal(a, b) {
		t.Error("RandomLiar not seed-deterministic")
	}
	va, _ := broadcast.DecodeVec(a)
	if va.Dim() != 3 {
		t.Errorf("dim = %d", va.Dim())
	}
}

// RandomLiar writes the wire layout itself: 10^4 relays must be the
// bytes EncodeVec gives the same draws, in its one reused buffer.
func TestRandomLiarMatchesEncodeVec(t *testing.T) {
	const d, scale = 3, 10
	liar, rng := RandomLiar(21, d, scale), rand.New(rand.NewSource(21))
	for k := 0; k < 10_000; k++ {
		v := vec.New(d)
		for i := range v {
			v[i] = rng.NormFloat64() * scale
		}
		if got, want := liar.RelayValue(0, nil, 0, nil), broadcast.EncodeVec(v); !bytes.Equal(got, want) {
			t.Fatalf("relay %d: %x, EncodeVec gives %x", k, got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { liar.RelayValue(0, nil, 0, nil) }); got != 0 {
		t.Fatalf("%.0f allocations per relay, want 0", got)
	}
}

func TestGarbageUndecodable(t *testing.T) {
	if _, err := broadcast.DecodeVec(Garbage().RelayValue(0, nil, 0, nil)); err == nil {
		t.Error("Garbage decodable")
	}
}

func TestRelayOnlyLiar(t *testing.T) {
	b := RelayOnlyLiar(3, vec.Of(9))
	if !bytes.Equal(b.RelayValue(3, nil, 0, []byte("own")), []byte("own")) {
		t.Error("own instance corrupted")
	}
	got, _ := broadcast.DecodeVec(b.RelayValue(1, nil, 0, []byte("other")))
	if !got.Equal(vec.Of(9)) {
		t.Error("other instance not corrupted")
	}
}

func TestWorstCasePlacement(t *testing.T) {
	honest := []vec.V{vec.Of(0, 0), vec.Of(1, 0), vec.Of(0, 1)}
	p := WorstCasePlacement(honest, 5)
	if p.Dim() != 2 {
		t.Fatal("dim")
	}
	c := vec.Mean(honest)
	if d := p.Dist2(c); d < 4.9 || d > 5.1 {
		t.Errorf("placement distance from centroid = %v, want ~5", d)
	}
	// Degenerate: all honest identical.
	same := []vec.V{vec.Of(1, 1), vec.Of(1, 1)}
	p2 := WorstCasePlacement(same, 2)
	if d := p2.Dist2(vec.Of(1, 1)); d < 1.9 || d > 2.1 {
		t.Errorf("degenerate placement distance = %v", d)
	}
}
