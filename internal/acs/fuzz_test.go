package acs

import (
	"math/rand"
	"runtime"
	"testing"

	"relaxedbvc/internal/broadcast"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/vec"
)

// FuzzACSStep injects one arbitrary rbc or aba message into an honest
// node's inbox at an arbitrary round of a 4-node stream whose fourth
// node is mute — the injected message is what that node's fault budget
// is spent on. Links are authenticated, so the message's origin is the
// faulty node or no process at all, never a correct peer. Whatever the
// bytes: no panic, memory for the message bounded by a constant, and
// every correct node seals the stream the undisturbed run seals.
//
// Run with: go test -run=^$ -fuzz=FuzzACSStep ./internal/acs
func FuzzACSStep(f *testing.F) {
	const n, faults, d, epochs, byz = 4, 1, 1, 2, 3
	props := genProposals(rand.New(rand.NewSource(37)), epochs, n, d)
	behaviors := map[int]Behavior{byz: Mute}
	run := func(t testing.TB, at int, extra []sched.Message) ([]*Node, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nodes := runTampered(t, n, faults, props, behaviors, at, extra, nil)
		runtime.ReadMemStats(&after)
		return nodes, after.TotalAlloc - before.TotalAlloc
	}
	clean, cleanAlloc := run(f, -1, nil)
	want := Fingerprint(clean[0].Decisions())
	if len(clean[0].Decisions()) != epochs {
		f.Fatalf("clean run sealed %d epochs", len(clean[0].Decisions()))
	}

	value := broadcast.EncodeVec(vec.Of(7))
	echo := broadcast.EncodeInit(1, broadcast.EpochID(0), value)
	echo[0] = 1
	f.Add(1, byz, true, echo)
	f.Add(0, byz, true, broadcast.EncodeInit(byz, broadcast.EpochID(1), value))
	f.Add(2, byz, false, encodeABA(0, 1, 0, abaBval, 0))
	f.Add(3, byz, false, encodeABA(1, 2, 1, abaAux, 1))
	// Each field truncated and oversized.
	for cut := 0; cut < len(echo); cut += 3 {
		f.Add(1, byz, true, echo[:cut])
	}
	f.Add(1, byz, true, append(echo[:len(echo):len(echo)], 0xff, 0xff))
	f.Add(1, byz, true, append([]byte{1, 0, 1, 0xff, 0xff, 0xff, 0xff}, echo[7:]...)) // id length 2^32-1
	f.Add(2, byz, false, encodeABA(0, 1, 0, abaBval, 0)[:11])
	f.Add(2, byz, false, append(encodeABA(0, 1, 0, abaBval, 0), 0))
	// Far round, far epoch, garbage id, named sender and origin that are
	// no process, unknown phases.
	f.Add(1, byz, false, encodeABA(0, 1, 1<<31, abaBval, 1))
	f.Add(1, byz, false, encodeABA(0, 1, 1<<32-1, abaAux, 1))
	f.Add(1, byz, false, encodeABA(1<<32-1, 1, 0, abaBval, 1))
	f.Add(1, byz, false, encodeABA(0, 1<<16-1, 0, abaBval, 1))
	f.Add(1, byz, false, encodeABA(0, 1, 0, 9, 1))
	// TERMs: one, a duplicate pair, both values from one sender, far
	// rounds and a far epoch, and one whose origin is node 0 itself (the
	// fuzz body maps every process origin to the faulty node).
	term := encodeABA(0, 1, 0, abaTerm, 0)
	f.Add(2, byz, false, term)
	f.Add(3, byz, false, append(term[:len(term):len(term)], term...))
	f.Add(2, byz, false, append(encodeABA(1, 2, 0, abaTerm, 0), encodeABA(1, 2, 0, abaTerm, 1)...))
	f.Add(1, byz, false, encodeABA(0, 1, 1<<32-1, abaTerm, 1))
	f.Add(1, byz, false, append(encodeABA(0, 3, 1<<31, abaTerm, 0), encodeABA(0, 3, 2, abaBval, 0)...))
	f.Add(1, byz, false, encodeABA(1<<32-1, 1, 0, abaTerm, 1))
	f.Add(2, 0, false, encodeABA(0, 0, 0, abaTerm, 0))
	for _, id := range []string{"", "x", "e", "e-1", "e00", "e99999999999999999999", "rva-0"} {
		m := broadcast.EncodeInit(1, id, value)
		m[0] = 2
		f.Add(1, byz, true, m)
	}
	for _, sender := range []int{n, 255, 1<<16 - 1} {
		m := broadcast.EncodeInit(sender, broadcast.EpochID(0), value)
		m[0] = 1
		f.Add(1, byz, true, m)
	}
	f.Add(1, n, true, echo)
	f.Add(1, -1, false, encodeABA(0, 1, 0, abaBval, 0))
	f.Add(1, byz, true, append([]byte{7}, echo[1:]...))
	// Bodies: several aba votes, one cut mid-vote; an rbc body holding an
	// INIT, an entry naming sender n, a trailing byte, the marker alone.
	votes := append(encodeABA(0, 1, 0, abaBval, 0), encodeABA(0, 2, 0, abaAux, 1)...)
	f.Add(2, byz, false, votes)
	f.Add(2, byz, false, votes[:abaVoteLen+5])
	body := append([]byte{3}, echo...)
	f.Add(1, byz, true, append(body[:len(body):len(body)], broadcast.EncodeInit(1, broadcast.EpochID(0), value)...))
	stranger := broadcast.EncodeInit(n, broadcast.EpochID(0), value)
	stranger[0] = 1
	f.Add(1, byz, true, append(body[:len(body):len(body)], stranger...))
	f.Add(1, byz, true, append(body[:len(body):len(body)], 0))
	f.Add(1, byz, true, []byte{3})

	f.Fuzz(func(t *testing.T, at, from int, rbc bool, data []byte) {
		if from >= 0 && from < n {
			from = byz
		}
		m := sched.Message{From: from, To: 0, Tag: ABATag, Data: data}
		if rbc {
			m.Tag = broadcast.BrachaTag
		}
		if at < 0 || at > 40 {
			at = 0
		}
		nodes, alloc := run(t, at, []sched.Message{m})
		for i, node := range nodes[:byz] {
			if got := Fingerprint(node.Decisions()); got != want {
				t.Fatalf("node %d sealed %s, undisturbed run %s", i, got, want)
			}
		}
		if ceiling := cleanAlloc + 64<<10 + 4*uint64(len(data)); alloc > ceiling {
			t.Fatalf("run allocated %d bytes, undisturbed %d, ceiling %d", alloc, cleanAlloc, ceiling)
		}
	})
}
