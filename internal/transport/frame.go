package transport

// The wire codec: a Frame is flattened to a fixed header (from, to,
// round) followed by two length-prefixed fields (tag, data) in the
// exact field layout of internal/broadcast's message encodings
// (broadcast.AppendField/ReadField), and travels on stream links as a
// single 4-byte big-endian length prefix plus that payload. There is
// one encoder, appendFrame, which appends to a caller-owned buffer:
// EncodeFrame and WriteFrame size that buffer exactly (one allocation),
// and a TCP endpoint appends each frame to its peer's reused send
// buffer (none). The codec is total on arbitrary input: any byte string
// either decodes to a Frame or returns an error chaining ErrBadFrame —
// never a panic (fuzzed in frame_fuzz_test.go, including truncated and
// oversized frames).

import (
	"encoding/binary"
	"fmt"
	"io"

	"relaxedbvc/internal/broadcast"
)

// DefaultMaxFrame is the frame size limit of the TCP endpoint,
// ReadFrame and WriteFrame: 1 MiB, far above a round chunk (bundleCap
// plus one message, and vectors are tens of bytes) yet small enough to
// bound a malicious length prefix.
const DefaultMaxFrame = 1 << 20

// frameHeaderLen is the fixed prefix of an encoded frame: u16 from,
// u16 to, u32 round (two's complement for the -1 Start round).
const frameHeaderLen = 8

// streamPrefixLen is the length prefix a frame carries on a stream.
const streamPrefixLen = 4

// tagDataLen and appendTagData size and append a (tag, data) pair as
// two broadcast.AppendField fields: the tail of a frame, and one
// message inside a round bundle.
func tagDataLen(tag string, data []byte) int { return 4 + len(tag) + 4 + len(data) }

func appendTagData(dst []byte, tag string, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tag)))
	dst = append(dst, tag...)
	return broadcast.AppendField(dst, data)
}

// readTagData reads one pair written by appendTagData; tag and data
// alias b.
func readTagData(b []byte) (tag, data, rest []byte, err error) {
	if tag, rest, err = broadcast.ReadField(b); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: tag field: %v", ErrBadFrame, err)
	}
	if data, rest, err = broadcast.ReadField(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: data field: %v", ErrBadFrame, err)
	}
	return tag, data, rest, nil
}

// encodedLen is len(EncodeFrame(f)), computed without encoding.
func encodedLen(f *Frame) int { return frameHeaderLen + tagDataLen(f.Tag, f.Data) }

// appendFrame appends f's wire payload to dst.
func appendFrame(dst []byte, f *Frame) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.From))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.To))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(f.Round)))
	return appendTagData(dst, f.Tag, f.Data)
}

// appendStreamFrame appends f as it travels on a stream: the length
// prefix, then the payload.
func appendStreamFrame(dst []byte, f *Frame) []byte {
	return appendFrame(binary.BigEndian.AppendUint32(dst, uint32(encodedLen(f))), f)
}

// EncodeFrame flattens f to the wire payload (without the stream
// length prefix).
func EncodeFrame(f *Frame) []byte {
	return appendFrame(make([]byte, 0, encodedLen(f)), f)
}

// DecodeFrame parses a payload produced by EncodeFrame. Trailing bytes
// after the data field are rejected, so the encoding is canonical:
// DecodeFrame(EncodeFrame(f)) round-trips and nothing else does.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	if len(b) < frameHeaderLen {
		return f, fmt.Errorf("%w: %d-byte payload shorter than the %d-byte header", ErrBadFrame, len(b), frameHeaderLen)
	}
	f.From = int(binary.BigEndian.Uint16(b[0:]))
	f.To = int(int16(binary.BigEndian.Uint16(b[2:])))
	f.Round = int(int32(binary.BigEndian.Uint32(b[4:])))
	tag, data, rest, err := readTagData(b[frameHeaderLen:])
	if err != nil {
		return f, err
	}
	if len(rest) != 0 {
		return f, fmt.Errorf("%w: %d trailing bytes after data field", ErrBadFrame, len(rest))
	}
	f.Tag = string(tag)
	if len(data) > 0 {
		f.Data = data
	}
	return f, nil
}

// WriteFrame writes one length-prefixed frame to w. Frames larger than
// DefaultMaxFrame fail with ErrFrameTooLarge before any byte is
// written, keeping the stream framing intact.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	size := encodedLen(f)
	if size > DefaultMaxFrame {
		return 0, fmt.Errorf("%w: %d-byte frame, limit %d", ErrFrameTooLarge, size, DefaultMaxFrame)
	}
	n, err := w.Write(appendStreamFrame(make([]byte, 0, streamPrefixLen+size), f))
	if err != nil {
		return n, fmt.Errorf("%w: write: %v", ErrTransport, err)
	}
	return n, nil
}

// ReadFrame reads one length-prefixed frame from r. A length prefix
// above DefaultMaxFrame fails with ErrFrameTooLarge without allocating
// the announced buffer; short reads and undecodable payloads chain
// ErrBadFrame; a clean EOF before the first prefix byte surfaces as
// io.EOF wrapped in ErrTransport so stream loops can terminate on it.
func ReadFrame(r io.Reader) (Frame, error) {
	var prefix [streamPrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: read length prefix: %w", ErrTransport, err)
	}
	size := int(binary.BigEndian.Uint32(prefix[:]))
	if size > DefaultMaxFrame {
		return Frame{}, fmt.Errorf("%w: announced %d bytes, limit %d", ErrFrameTooLarge, size, DefaultMaxFrame)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated %d-byte frame: %v", ErrBadFrame, size, err)
	}
	return DecodeFrame(payload)
}
