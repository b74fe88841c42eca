package broadcast

import (
	"testing"

	"relaxedbvc/internal/sched"
)

// silentEcho returns a 7-process component holding one live instance
// (INIT from process 1 handled, own ECHO counted) and a function that
// feeds it process 2's ECHO — two of the five ECHOes a READY needs, so
// nothing is sent — and then takes the vote back, so every call walks
// the path of a first, counted vote.
func silentEcho() (*BrachaState, func() []sched.Outgoing) {
	b := NewBrachaState(7, 2, 0)
	value := EncodeVec([]float64{1})
	b.Handle(sched.Message{From: 1, Tag: BrachaTag, Data: EncodeInit(1, EpochID(0), value)})
	echo := sched.Message{From: 2, Tag: BrachaTag, Data: encodeRBC(rbcEcho, 1, EpochID(0), value)}
	in := b.insts[EpochID(0)].insts[1]
	return b, func() []sched.Outgoing {
		outs := b.Handle(echo)
		in.voted[2] = 0
		in.tallies[0].count[rbcEcho]--
		return outs
	}
}

var benchOuts []sched.Outgoing

// BenchmarkBrachaHandle is one counted ECHO into a live instance that
// crosses no threshold: decode, instance lookup, duplicate check,
// tally, both modal-value reads. It must not allocate.
func BenchmarkBrachaHandle(b *testing.B) {
	_, handle := silentEcho()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOuts = handle()
	}
}

func TestBrachaHandleAllocatesNothingWhenSilent(t *testing.T) {
	bs, handle := silentEcho()
	if outs := handle(); outs != nil {
		t.Fatalf("the probe ECHO sent %v", outs)
	}
	if got := testing.AllocsPerRun(1000, func() { handle() }); got != 0 {
		t.Fatalf("a counted ECHO that sends nothing allocated %v times", got)
	}
	if len(bs.insts) != 1 {
		t.Fatalf("probe opened %d instances", len(bs.insts))
	}
}

// Messages no correct process could have sent are dropped before an
// instance exists for them: origins and named senders that are no
// process, unknown phases, an INIT from someone other than its sender.
func TestBrachaDropsBeforeCreatingState(t *testing.T) {
	const n = 4
	b := NewBrachaState(n, 1, 0)
	msg := func(from int, phase byte, sender int) sched.Message {
		return sched.Message{From: from, Tag: BrachaTag, Data: encodeRBC(phase, sender, "e0", []byte("v"))}
	}
	for name, m := range map[string]sched.Message{
		"origin -1":         msg(-1, rbcEcho, 1),
		"origin n":          msg(n, rbcReady, 1),
		"sender n":          msg(1, rbcEcho, n),
		"sender 65535":      msg(1, rbcReady, 65535),
		"phase 3":           msg(1, 3, 1),
		"phase 255":         msg(1, 255, 1),
		"impersonated INIT": msg(2, rbcInit, 1),
		"short":             {From: 1, Tag: BrachaTag, Data: []byte{rbcEcho, 0}},
	} {
		if outs := b.Handle(m); outs != nil || len(b.insts) != 0 {
			t.Fatalf("%s: sent %v, %d instances", name, outs, len(b.insts))
		}
	}
	if len(b.TakeDeliveries()) != 0 {
		t.Fatal("garbage delivered something")
	}
}

// An epoch has exactly one id: ParseEpochID accepts what EpochID prints
// and nothing else, so aliases of a live epoch ("e01", an overflowing
// digit string) cannot open instances of their own.
func TestParseEpochIDIsCanonical(t *testing.T) {
	for _, e := range []int{0, 1, 9, 10, 101, 1 << 40} {
		if got, ok := ParseEpochID(EpochID(e)); !ok || got != e {
			t.Fatalf("ParseEpochID(EpochID(%d)) = %d, %v", e, got, ok)
		}
	}
	for _, id := range []string{"", "e", "x1", "e-1", "e+1", "e00", "e01", "e1x", "e 1", "e18446744073709551617", "e99999999999999999999"} {
		if e, ok := ParseEpochID(id); ok {
			t.Fatalf("ParseEpochID(%q) = %d, want rejected", id, e)
		}
	}
}
