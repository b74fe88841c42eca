package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
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

// deliverAll feeds b every vote of a fault-free broadcast of value by
// sender on instance id: the INIT, then an ECHO and a READY from every
// process but b itself, which votes through its own messages.
func deliverAll(b *BrachaState, sender int, id string, value []byte) {
	b.Receive(sender, encodeRBC(rbcInit, sender, id, value), nil)
	for _, phase := range []byte{rbcEcho, rbcReady} {
		for from := 0; from < b.N; from++ {
			if from != b.Self {
				b.Receive(from, encodeRBC(phase, sender, id, value), nil)
			}
		}
	}
	b.TakeVotes()
}

// An id that traffic names again after it was pruned, one sender at a
// time or whole, opens afresh on recycled memory: it delivers its new
// values, and every delivery made before, drained before the prune or
// only after it, keeps its bytes.
func TestBrachaPruneReopenKeepsDeliveries(t *testing.T) {
	for _, n := range []int{4, 7} {
		b := NewBrachaState(n, (n-1)/3, 0)
		type kept struct {
			d    Delivery
			want string
		}
		var all []kept
		take := func(want map[int]string) {
			for _, d := range b.TakeDeliveries() {
				all = append(all, kept{d, want[d.Sender]})
			}
		}
		for r := 0; r < 40; r++ {
			id := EpochID(r % 2) // every id is pruned and reopened
			want := make(map[int]string)
			for s := 0; s < n; s++ {
				want[s] = fmt.Sprintf("round %d sender %d", r, s)
				deliverAll(b, s, id, []byte(want[s]))
				if s == n/2 {
					take(want) // half drained before the prune
				}
			}
			spare, pruned := len(b.spareInsts), 0
			if r%4 < 2 {
				pruned = b.PruneInstances(func(_ int, i string) bool { return i == id })
			} else {
				for s := 0; s < n; s++ { // the row empties at the last sender
					pruned += b.PruneInstances(func(t int, i string) bool { return t == s && i == id })
				}
			}
			if got := pruned; got != n {
				t.Fatalf("n=%d round %d: pruned %d instances, want %d", n, r, got, n)
			}
			if r > 0 && len(b.spareInsts) != spare+n {
				t.Fatalf("n=%d round %d: %d spare instances after the prune, %d before", n, r, len(b.spareInsts), spare)
			}
			take(want) // the rest only after it
			if len(b.insts) != 0 {
				t.Fatalf("n=%d round %d: %d rows left after pruning everything", n, r, len(b.insts))
			}
		}
		if len(all) != 40*n {
			t.Fatalf("n=%d: %d deliveries, want %d", n, len(all), 40*n)
		}
		for _, k := range all {
			if string(k.d.Value) != k.want {
				t.Fatalf("n=%d: delivery of sender %d on %s reads %q, want %q", n, k.d.Sender, k.d.ID, k.d.Value, k.want)
			}
		}
	}
}

// Recycled instances behave as fresh ones: a state that has pruned and
// reopened an instance many times sends and delivers what a new state
// does on the same traffic, equivocating values included.
func TestBrachaRecycledInstanceMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + 3*rng.Intn(3)
		f := (n - 1) / 3
		old := NewBrachaState(n, f, 0)
		for r := 0; r < 5; r++ { // wear the spares in: equivocated tallies, partial votes
			for s := 0; s < n; s++ {
				deliverAll(old, s, "x", []byte{byte(r), byte(s)})
				old.Receive(1, encodeRBC(rbcEcho, s, "x", []byte("other")), nil)
			}
			old.TakeDeliveries()
			old.PruneInstances(func(int, string) bool { return true })
		}
		fresh := NewBrachaState(n, f, 0)
		for step := 0; step < 30*n; step++ {
			sender, from, phase := rng.Intn(n), rng.Intn(n), byte(rng.Intn(3))
			if phase == rbcInit {
				from = sender
			}
			data := encodeRBC(phase, sender, "x", []byte{byte(rng.Intn(2))})
			old.Receive(from, data, nil)
			fresh.Receive(from, data, nil)
			if got, want := old.TakeVotes(), fresh.TakeVotes(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: recycled state sent %x, fresh %x", seed, step, got, want)
			}
			if got, want := old.TakeDeliveries(), fresh.TakeDeliveries(); !sameDeliveries(got, want) {
				t.Fatalf("seed %d step %d: recycled state delivered %v, fresh %v", seed, step, got, want)
			}
		}
		for s, in := range fresh.insts["x"].insts {
			if got := old.insts["x"].insts[s]; (got == nil) != (in == nil) || in != nil && len(got.tallies) != len(in.tallies) {
				t.Fatalf("seed %d: recycled instance %d holds %+v, fresh %+v", seed, s, got, in)
			}
		}
	}
}

// The spare lists hold at most brachaSpareRows rows and their
// instances, however many a prune releases, and a state reopens more
// instances than it keeps.
func TestBrachaSpareListsAreBounded(t *testing.T) {
	const n, rows = 7, 3 * brachaSpareRows
	b := NewBrachaState(n, 2, 0)
	for cycle := 0; cycle < 3; cycle++ {
		for r := 0; r < rows; r++ {
			for s := 0; s < n; s++ {
				deliverAll(b, s, EpochID(r), []byte{byte(r), byte(s)})
			}
		}
		if got := len(b.TakeDeliveries()); got != rows*n {
			t.Fatalf("cycle %d: %d deliveries, want %d", cycle, got, rows*n)
		}
		if cycle == 1 {
			for r := 0; r < rows; r++ {
				b.PruneInstances(func(_ int, i string) bool { return i == EpochID(r) })
			}
		} else {
			b.PruneInstances(func(int, string) bool { return true })
		}
		if len(b.insts) != 0 || len(b.spareInsts) != brachaSpareRows*n || len(b.spareRows) != brachaSpareRows {
			t.Fatalf("cycle %d: %d spare instances and %d rows, bound %d and %d", cycle, len(b.spareInsts), len(b.spareRows), brachaSpareRows*n, brachaSpareRows)
		}
	}
}

// PruneID removes what PruneInstances removes for a predicate naming one
// id: on states holding partial rows of several ids, a pruned id or one
// that is not held leaves the same rows, the same spare lists and the
// same later deliveries either way.
func TestBrachaPruneIDMatchesPruneInstances(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + 3*rng.Intn(3)
		byID, byMatch := NewBrachaState(n, (n-1)/3, 0), NewBrachaState(n, (n-1)/3, 0)
		for k := 0; k < 6*n; k++ {
			sender, id := rng.Intn(n), EpochID(rng.Intn(5))
			value := []byte{byte(rng.Intn(3))}
			deliverAll(byID, sender, id, value)
			deliverAll(byMatch, sender, id, value)
		}
		e := rng.Intn(6) // epoch 5 is never held
		id := EpochID(e)
		got := byID.PruneID(AppendEpochID(nil, e))
		want := byMatch.PruneInstances(func(_ int, i string) bool { return i == id })
		if got != want || len(byID.insts) != len(byMatch.insts) || len(byID.spareInsts) != len(byMatch.spareInsts) ||
			len(byID.spareRows) != len(byMatch.spareRows) || len(byID.spareTallies) != len(byMatch.spareTallies) {
			t.Fatalf("seed %d, %s: PruneID pruned %d, left %d rows and spares %d/%d/%d; PruneInstances %d, %d rows, %d/%d/%d", seed, id,
				got, len(byID.insts), len(byID.spareInsts), len(byID.spareRows), len(byID.spareTallies),
				want, len(byMatch.insts), len(byMatch.spareInsts), len(byMatch.spareRows), len(byMatch.spareTallies))
		}
		byID.TakeDeliveries()
		byMatch.TakeDeliveries()
		deliverAll(byID, 1, id, []byte("again"))
		deliverAll(byMatch, 1, id, []byte("again"))
		if got, want := byID.TakeDeliveries(), byMatch.TakeDeliveries(); !sameDeliveries(got, want) {
			t.Fatalf("seed %d, %s: after PruneID delivered %v, after PruneInstances %v", seed, id, got, want)
		}
	}
}
