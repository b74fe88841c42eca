package acs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint digests a decision sequence into a stable hex string:
// epoch indices, subset membership, the decided vectors and deltas, all
// in canonical binary form. Two transports executed the same stream iff
// their fingerprints match byte for byte — this is the parity predicate
// of the cross-transport tests and of bvcnode's -stream records.
func Fingerprint(decisions []EpochDecision) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(x uint64) {
		binary.BigEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	u64(uint64(len(decisions)))
	for _, d := range decisions {
		u64(uint64(d.Epoch))
		u64(uint64(len(d.Subset)))
		for _, s := range d.Subset {
			u64(uint64(s))
		}
		for _, v := range d.Values {
			u64(uint64(len(v)))
			for _, x := range v {
				u64(math.Float64bits(x))
			}
		}
		u64(uint64(len(d.Output)))
		for _, x := range d.Output {
			u64(math.Float64bits(x))
		}
		u64(math.Float64bits(d.Delta))
	}
	return hex.EncodeToString(h.Sum(nil))
}
