package transport

// Fuzz coverage for the wire codec: DecodeFrame, ReadFrame and the
// round-bundle decoder must be total on arbitrary input — every byte
// string either yields a value that re-encodes canonically or an error
// chaining ErrTransport, and nothing panics. Truncated and oversized
// inputs are seeded explicitly.

import (
	"bytes"
	"errors"
	"testing"

	"relaxedbvc/internal/sched"
)

func fuzzSeeds() [][]byte {
	frames := []Frame{
		{From: 0, To: 1, Round: 0, Tag: "eig", Data: []byte("payload")},
		{From: 3, To: Broadcast, Round: -1, Tag: roundTag, Data: []byte{bundleLast, 0, 0, 0, 0}},
		{From: 65535, To: 2, Round: 1 << 30, Tag: "", Data: nil},
		{From: 1, To: 0, Round: -1, Tag: helloTag},
	}
	seeds := make([][]byte, 0, len(frames)+3)
	for i := range frames {
		seeds = append(seeds, EncodeFrame(&frames[i]))
	}
	full := EncodeFrame(&frames[0])
	seeds = append(seeds,
		full[:len(full)-3],                       // truncated data field
		full[:frameHeaderLen-1],                  // shorter than the header
		append(full[:len(full):len(full)], 0xAA), // trailing byte
	)
	return seeds
}

func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not chain ErrBadFrame", err)
			}
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("decode error %v does not chain ErrTransport", err)
			}
			return
		}
		if got := EncodeFrame(&fr); !bytes.Equal(got, b) {
			t.Fatalf("decode is not canonical: re-encoded %x from %x", got, b)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		var buf bytes.Buffer
		fr := Frame{From: 0, To: 1, Tag: "eig", Data: s}
		if _, err := WriteFrame(&buf, &fr, 0); err == nil {
			f.Add(buf.Bytes())
		}
		f.Add(s)
	}
	// An announced length far beyond the limit must fail before
	// allocating.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		fr, err := ReadFrame(r, 1<<16)
		if err != nil {
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("read error %v does not chain ErrTransport", err)
			}
			return
		}
		// A successful read must reproduce exactly the consumed prefix
		// when written back (stream framing is canonical too).
		var out bytes.Buffer
		if _, err := WriteFrame(&out, &fr, 1<<16); err != nil {
			t.Fatalf("re-write of decoded frame: %v", err)
		}
		consumed := len(b) - r.Len()
		if !bytes.Equal(out.Bytes(), b[:consumed]) {
			t.Fatalf("stream round-trip mismatch: wrote %x, consumed %x", out.Bytes(), b[:consumed])
		}
	})
}

func FuzzDecodeBundle(f *testing.F) {
	empty := bundleFrame(1, 0, 0, bundleLast).Data
	single := bundleFrame(1, 0, 3, lastDone, testMsg{"rbc", "payload"}).Data
	// A full-size (bundleCap) chunk is decoded in
	// TestRunSyncSplitsOversizedRound; as a seed it would stall the
	// fuzzer, which minimizes every interesting input byte by byte.
	many := appendBundleHeader(nil, bundleHeader{chunk: 1})
	for i := 0; i < 16; i++ {
		many = appendTagData(many, "eig", bytes.Repeat([]byte{byte(i)}, 48))
	}
	f.Add(empty)
	f.Add(single)
	f.Add(many)
	f.Add(bundleFrame(1, 0, 0, 0, testMsg{"a", ""}, testMsg{"a", "x"}, testMsg{"", "y"}).Data)
	f.Add(single[:len(single)-3])                      // truncated data field
	f.Add(single[:bundleHeaderLen-1])                  // shorter than the header
	f.Add(append(single[:len(single):len(single)], 0)) // trailing byte
	f.Add(append([]byte{0xF0}, single[1:]...))         // reserved flag bits
	f.Fuzz(func(t *testing.T, b []byte) {
		h, section, err := parseBundleHeader(b)
		var msgs []sched.Message
		if err == nil {
			msgs, err = appendBundleMsgs(nil, section, 1, 0, 0)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || !errors.Is(err, ErrTransport) {
				t.Fatalf("decode error %v does not chain ErrBadFrame/ErrTransport", err)
			}
			if len(msgs) != 0 {
				t.Fatalf("failed decode left %d messages behind", len(msgs))
			}
			return
		}
		got := appendBundleHeader(nil, h)
		for _, m := range msgs {
			got = appendTagData(got, m.Tag, m.Data)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("decode is not canonical: re-encoded %x from %x", got, b)
		}
	})
}
