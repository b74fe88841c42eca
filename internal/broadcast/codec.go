// Package broadcast implements the three broadcast primitives the
// paper's algorithms rely on:
//
//   - EIG (exponential information gathering) Byzantine Generals, the
//     oral-messages OM(f) algorithm of Lamport, Shostak and Pease [12],
//     used by Algorithm ALGO's Step 1 in synchronous systems (n >= 3f+1);
//   - Dolev-Strong-style signed broadcast with simulated HMAC signatures,
//     an alternative synchronous broadcast with polynomial messages;
//   - Bracha reliable broadcast [4] for asynchronous systems, used by the
//     Relaxed Verified Averaging algorithm.
//
// EIGNode and DSNode are lockstep machines (sched.SyncProcess) that
// internal/transport.RunCluster drives on any plane; Bracha runs inside
// the asynchronous and ACS machines.
package broadcast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"relaxedbvc/internal/vec"
)

// vecWireLen is the encoded size of a d-dimensional vector: a 4-byte
// dimension header plus 8 bytes per IEEE754 coordinate.
func vecWireLen(d int) int { return 4 + 8*d }

// EncodeVec serializes a vector to bytes (dimension + IEEE754 bits).
func EncodeVec(v vec.V) []byte {
	out := make([]byte, vecWireLen(len(v)))
	binary.BigEndian.PutUint32(out, uint32(len(v)))
	for i, x := range v {
		binary.BigEndian.PutUint64(out[4+8*i:], math.Float64bits(x))
	}
	return out
}

// DecodeVec parses a vector encoded by EncodeVec.
func DecodeVec(b []byte) (vec.V, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("broadcast: short vector encoding")
	}
	d := int(binary.BigEndian.Uint32(b))
	if len(b) != vecWireLen(d) {
		return nil, fmt.Errorf("broadcast: vector encoding length %d != %d", len(b), vecWireLen(d))
	}
	v := make(vec.V, d)
	for i := range v {
		v[i] = math.Float64frombits(binary.BigEndian.Uint64(b[4+8*i:]))
	}
	return v, nil
}

// EpochID returns the reliable-broadcast instance id of an ACS epoch.
// Together with the Bracha sender id it names one (epoch, slot) RBC
// instance: slot s of epoch e is the broadcast (sender=s, id=EpochID(e)).
func EpochID(epoch int) string {
	return "e" + strconv.Itoa(epoch)
}

// ParseEpochID inverts EpochID; ok=false for ids of other subsystems and
// for spellings EpochID never produces (leading zeros, more digits than
// an int holds), so an epoch has exactly one id.
func ParseEpochID(id string) (epoch int, ok bool) {
	if len(id) < 2 || len(id) > 19 || id[0] != 'e' || (id[1] == '0' && len(id) > 2) {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// AppendField appends a length-prefixed byte field. It is the wire
// primitive shared by the broadcast message encodings and the
// transport frame codec (internal/transport), so every length-prefixed
// frame on a real link uses the same layout the simulated protocols
// already exchange in-process.
func AppendField(dst, field []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(field)))
	dst = append(dst, l[:]...)
	return append(dst, field...)
}

var (
	errShortField     = errors.New("broadcast: short field")
	errTruncatedField = errors.New("broadcast: truncated field")
)

// ReadField reads a length-prefixed byte field written by AppendField,
// returning the field and the remaining buffer.
func ReadField(src []byte) (field, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, errShortField
	}
	l := int(binary.BigEndian.Uint32(src))
	src = src[4:]
	if len(src) < l {
		return nil, nil, errTruncatedField
	}
	return src[:l], src[l:], nil
}

// encodePath serializes a process-id path (ids < 2^16).
func encodePath(path []int) []byte {
	out := make([]byte, 2+2*len(path))
	binary.BigEndian.PutUint16(out, uint16(len(path)))
	for i, p := range path {
		binary.BigEndian.PutUint16(out[2+2*i:], uint16(p))
	}
	return out
}

// decodePath parses a path encoded by encodePath of at most max ids.
func decodePath(b []byte, max int) ([]int, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("broadcast: short path")
	}
	l := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < 2*l || l > max {
		return nil, nil, fmt.Errorf("broadcast: truncated or overlong path")
	}
	path := make([]int, l)
	for i := range path {
		path[i] = int(binary.BigEndian.Uint16(b[2*i:]))
	}
	return path, b[2*l:], nil
}

func pathContains(path []int, id int) bool {
	for _, p := range path {
		if p == id {
			return true
		}
	}
	return false
}

func hasDuplicates(path []int) bool {
	for k, id := range path {
		if pathContains(path[:k], id) {
			return true
		}
	}
	return false
}
