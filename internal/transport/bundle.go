package transport

// The round bundle: everything one node sends one peer for one delivery
// round travels as a single control frame (Tag roundTag) whose Data is
//
//	flags u8 | chunk u32 | { tag field | data field }*
//
// each message a (tag, data) pair laid out as at the tail of a frame
// (appendTagData), in the order the process emitted them. Bit 0 of
// flags is the sender's Done flag, bit 1 marks the round's last chunk —
// the end-of-round barrier — and the other bits must be zero, so like
// the frame codec the encoding is canonical: decode∘encode is the
// identity and nothing else decodes (fuzzed in frame_fuzz_test.go). A
// round whose messages exceed bundleCap is split into chunks numbered
// from 0; every chunk takes at least one message, so a chunk is at most
// bundleCap plus one message long. An empty round is the
// bundleHeaderLen-byte header alone.

import (
	"encoding/binary"
	"fmt"

	"relaxedbvc/internal/sched"
)

// roundTag marks a round bundle; '\x00'-prefixed tags are reserved for
// the transport layer.
const roundTag = "\x00round"

const (
	// bundleHeaderLen is the flags byte plus the u32 chunk index.
	bundleHeaderLen = 5
	// bundleCap is the payload size past which a round is split into a
	// further chunk: far below DefaultMaxFrame, so the largest EIG relay
	// round fits any default link, yet above every ACS round.
	bundleCap = 64 << 10

	bundleDone = 1 << 0 // the sender was Done after the sending round
	bundleLast = 1 << 1 // last chunk of the round: the barrier
)

// bundleHeader is the decoded fixed prefix of a round bundle.
type bundleHeader struct {
	done, last bool
	chunk      uint32
}

func appendBundleHeader(dst []byte, h bundleHeader) []byte {
	var flags byte
	if h.done {
		flags |= bundleDone
	}
	if h.last {
		flags |= bundleLast
	}
	return binary.BigEndian.AppendUint32(append(dst, flags), h.chunk)
}

// parseBundleHeader splits a bundle into its header and message section.
func parseBundleHeader(b []byte) (bundleHeader, []byte, error) {
	if len(b) < bundleHeaderLen {
		return bundleHeader{}, nil, fmt.Errorf("%w: %d-byte bundle shorter than its %d-byte header", ErrBadFrame, len(b), bundleHeaderLen)
	}
	if b[0]&^(bundleDone|bundleLast) != 0 {
		return bundleHeader{}, nil, fmt.Errorf("%w: bundle flags %#02x use reserved bits", ErrBadFrame, b[0])
	}
	h := bundleHeader{
		done:  b[0]&bundleDone != 0,
		last:  b[0]&bundleLast != 0,
		chunk: binary.BigEndian.Uint32(b[1:]),
	}
	return h, b[bundleHeaderLen:], nil
}

// appendBundleMsgs decodes a bundle's message section onto inbox as
// messages from→to sent in round sentRound. Each Data aliases b
// (cap-limited, so appending to one cannot reach the next) and
// consecutive equal tags share one string. A section that does not
// parse to its last byte leaves inbox as it was.
func appendBundleMsgs(inbox []sched.Message, b []byte, from, to, sentRound int) ([]sched.Message, error) {
	start := len(inbox)
	var tag string
	for len(b) > 0 {
		tb, data, rest, err := readTagData(b)
		if err != nil {
			return inbox[:start], fmt.Errorf("bundle message %d: %w", len(inbox)-start, err)
		}
		if tag != string(tb) {
			tag = string(tb)
		}
		m := sched.Message{From: from, To: to, Tag: tag, SentRound: sentRound}
		if len(data) > 0 {
			m.Data = data[:len(data):len(data)]
		}
		inbox = append(inbox, m)
		b = rest
	}
	return inbox, nil
}
