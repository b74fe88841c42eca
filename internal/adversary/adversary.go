// Package adversary is a library of Byzantine behaviors for the
// synchronous (EIG broadcast level) protocols: crash/silence,
// equivocation, random lying, fixed-vector injection, and the worst-case
// "proof replayer" that feeds the adversarial matrices from the paper's
// impossibility arguments into a run.
package adversary

import (
	"encoding/binary"
	"math"
	"math/rand"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/vec"
)

// Silent drops every message the process should send (a crash at time 0).
func Silent() broadcast.EIGBehavior {
	return broadcast.EIGBehaviorFunc(func(int, []int, int, []byte) []byte { return nil })
}

// Honest follows the protocol exactly (useful as a placeholder when a
// behavior slot must be filled but the process should not deviate; note
// that a process with this behavior still counts against f).
func Honest() broadcast.EIGBehavior {
	return broadcast.EIGBehaviorFunc(func(_ int, _ []int, _ int, honest []byte) []byte { return honest })
}

// FixedVector always claims the given vector, to everyone, at every relay
// (including as commander of its own instance).
func FixedVector(v vec.V) broadcast.EIGBehavior {
	enc := broadcast.EncodeVec(v)
	return broadcast.EIGBehaviorFunc(func(int, []int, int, []byte) []byte { return enc })
}

// Equivocator sends vector a to even-numbered recipients and b to odd
// ones, at every relay step — the canonical two-faced commander.
func Equivocator(a, b vec.V) broadcast.EIGBehavior {
	ea, eb := broadcast.EncodeVec(a), broadcast.EncodeVec(b)
	return broadcast.EIGBehaviorFunc(func(_ int, _ []int, to int, _ []byte) []byte {
		if to%2 == 0 {
			return ea
		}
		return eb
	})
}

// PerRecipient sends vectors[to] to each recipient (falling back to the
// honest value when a recipient has no entry) — full per-recipient
// control, as in the Dolev-Strong style equivocation of Lemma 10.
func PerRecipient(vectors map[int]vec.V) broadcast.EIGBehavior {
	return broadcast.EIGBehaviorFunc(func(_ int, _ []int, to int, honest []byte) []byte {
		if v, ok := vectors[to]; ok {
			return broadcast.EncodeVec(v)
		}
		return honest
	})
}

// RandomLiar sends independent random vectors (seeded, deterministic per
// run) of the given dimension and scale. Each value is written straight
// into the EncodeVec layout (dimension u32, then the coordinates' IEEE754
// bits, big-endian) of one buffer the liar owns: the library copies a
// relay before asking for the next, so relays allocate nothing.
func RandomLiar(seed int64, d int, scale float64) broadcast.EIGBehavior {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 4+8*d)
	binary.BigEndian.PutUint32(out, uint32(d))
	return broadcast.EIGBehaviorFunc(func(int, []int, int, []byte) []byte {
		for i := 0; i < d; i++ {
			binary.BigEndian.PutUint64(out[4+8*i:], math.Float64bits(rng.NormFloat64()*scale))
		}
		return out
	})
}

// Garbage sends undecodable bytes, exercising the receivers' decode
// fallback path.
func Garbage() broadcast.EIGBehavior {
	return broadcast.EIGBehaviorFunc(func(int, []int, int, []byte) []byte {
		return []byte{0xde, 0xad}
	})
}

// RelayOnlyLiar behaves honestly as commander of its own instance but
// corrupts every relay of other commanders' values — the subtler attack
// that EIG's recursive majority must defeat.
func RelayOnlyLiar(self int, v vec.V) broadcast.EIGBehavior {
	enc := broadcast.EncodeVec(v)
	return broadcast.EIGBehaviorFunc(func(instance int, _ []int, _ int, honest []byte) []byte {
		if instance == self {
			return honest
		}
		return enc
	})
}

// WorstCasePlacement returns the input vector a Byzantine process should
// *claim* so that, combined with the honest inputs, the agreed multiset S
// maximizes the measured delta* pressure: the point diametrically
// opposite the centroid of the honest inputs at the given radius. This is
// a heuristic worst case used by the Table 1 experiments to stress the
// bounds (which must hold for every Byzantine choice).
func WorstCasePlacement(honest []vec.V, radius float64) vec.V {
	c := vec.Mean(honest)
	// Direction away from the most isolated honest point.
	far := honest[0]
	best := -1.0
	for _, h := range honest {
		if d := h.Dist2(c); d > best {
			best, far = d, h
		}
	}
	dir := c.Sub(far)
	if n := dir.Norm2(); n > 1e-12 {
		dir = dir.Scale(radius / n)
	} else {
		dir = vec.New(c.Dim())
		dir[0] = radius
	}
	return c.Add(dir)
}

// SignedEquivocator returns the canonical Byzantine commander for the
// signed (Dolev-Strong) broadcast mode: round-0 it sends the per-
// recipient vectors and stays silent afterwards. The signature chains it
// produces are genuine (it signs what it sends), so the equivocation is
// caught by honest cross-forwarding rather than by signature failure.
func SignedEquivocator(values map[int]vec.V) broadcast.DSBehavior {
	enc := make(map[int][]byte, len(values))
	for to, v := range values {
		enc[to] = broadcast.EncodeVec(v)
	}
	return broadcast.NewDSEquivocator(enc)
}
