package trace

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"relaxedbvc/internal/consensus"
	"relaxedbvc/internal/sched"
	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

func TestRecorderBasics(t *testing.T) {
	r := New(3)
	hook := r.Hook()
	for i := 0; i < 5; i++ {
		hook(sched.Message{From: i % 2, To: 1, Tag: "x", Data: make([]byte, 10), SentRound: i})
	}
	if r.Total() != 5 || r.TotalBytes() != 50 {
		t.Fatalf("total=%d bytes=%d", r.Total(), r.TotalBytes())
	}
	if len(r.Events()) != 3 {
		t.Fatalf("retained = %d, want 3 (cap)", len(r.Events()))
	}
	if r.PerTag()["x"] != 5 {
		t.Errorf("per-tag = %v", r.PerTag())
	}
	if r.PerSender()[0] != 3 || r.PerSender()[1] != 2 {
		t.Errorf("per-sender = %v", r.PerSender())
	}
}

// TestZeroValueRecorder checks a plain &Recorder{} (no New) records and
// reports correctly with the default cap.
func TestZeroValueRecorder(t *testing.T) {
	var r Recorder
	hook := r.Hook()
	for i := 0; i < 7; i++ {
		hook(sched.Message{From: i % 3, To: 0, Tag: "z", Data: make([]byte, 4), SentRound: i})
	}
	if r.Total() != 7 || r.TotalBytes() != 28 {
		t.Fatalf("total=%d bytes=%d", r.Total(), r.TotalBytes())
	}
	if len(r.Events()) != 7 {
		t.Fatalf("retained = %d", len(r.Events()))
	}
	if r.PerTag()["z"] != 7 {
		t.Errorf("per-tag = %v", r.PerTag())
	}
	var sum bytes.Buffer
	r.Summary(&sum)
	if !strings.Contains(sum.String(), "7 messages") {
		t.Errorf("summary: %s", sum.String())
	}
}

// TestConcurrentHooks hammers one recorder from many goroutines — the
// shape batch trials sharing a recorder produce — and checks the counts
// survive. Run with -race.
func TestConcurrentHooks(t *testing.T) {
	var r Recorder
	hook := r.Hook()
	const goroutines, each = 8, 600
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				hook(sched.Message{From: g, To: 0, Tag: "c", Data: []byte{1}, SentRound: i})
				if i%100 == 0 {
					// Read concurrently with writes.
					_ = r.Total()
					_ = r.PerTag()
					_ = r.Events()
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != goroutines*each {
		t.Fatalf("total = %d, want %d", r.Total(), goroutines*each)
	}
	if r.TotalBytes() != goroutines*each {
		t.Fatalf("bytes = %d", r.TotalBytes())
	}
	per := r.PerSender()
	for g := 0; g < goroutines; g++ {
		if per[g] != each {
			t.Fatalf("sender %d count = %d, want %d", g, per[g], each)
		}
	}
	if len(r.Events()) != 4096 {
		t.Fatalf("retained = %d, want default cap 4096", len(r.Events()))
	}
}

// TestEventsReturnsCopy checks mutating the returned slice cannot
// corrupt the recorder's state.
func TestEventsReturnsCopy(t *testing.T) {
	var r Recorder
	hook := r.Hook()
	hook(sched.Message{From: 1, To: 2, Tag: "orig"})
	ev := r.Events()
	ev[0].Tag = "mutated"
	if r.Events()[0].Tag != "orig" {
		t.Fatal("Events exposed internal storage")
	}
	pt := r.PerTag()
	pt["orig"] = 99
	if r.PerTag()["orig"] != 1 {
		t.Fatal("PerTag exposed internal map")
	}
}

func TestRecorderDefaultLimit(t *testing.T) {
	r := New(0)
	hook := r.Hook()
	for i := 0; i < 5000; i++ {
		hook(sched.Message{Tag: "y"})
	}
	if len(r.Events()) != 4096 {
		t.Fatalf("retained = %d", len(r.Events()))
	}
}

func TestSummaryAndDump(t *testing.T) {
	r := New(10)
	hook := r.Hook()
	hook(sched.Message{From: 0, To: 1, Tag: "eig", Data: []byte{1, 2}, SentRound: 0})
	hook(sched.Message{From: 1, To: 0, Tag: "rbc", Data: []byte{3}, SentRound: 1})
	var sum bytes.Buffer
	r.Summary(&sum)
	out := sum.String()
	for _, want := range []string{"2 messages", "3 payload bytes", "tag eig", "tag rbc", "from 0", "from 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	var dump bytes.Buffer
	r.Dump(&dump, 0)
	if lines := strings.Count(dump.String(), "\n"); lines != 2 {
		t.Errorf("dump lines = %d:\n%s", lines, dump.String())
	}
	var capped bytes.Buffer
	r.Dump(&capped, 1)
	if !strings.Contains(capped.String(), "more retained") {
		t.Errorf("capped dump missing continuation note:\n%s", capped.String())
	}
}

// End-to-end: trace a real protocol run and check the counts line up
// with the engine's own statistics.
func TestRecorderOnProtocolRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := make([]vec.V, 4)
	for i := range inputs {
		inputs[i] = vec.Of(rng.NormFloat64(), rng.NormFloat64())
	}
	r := New(1 << 16)
	cfg := &consensus.SyncConfig{
		N: 4, F: 1, D: 2, Inputs: inputs,
		Trace: r.Hook(),
	}
	choose, err := consensus.DeltaRelaxedChooser(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := consensus.RunSync(context.Background(), transport.Plane{}, cfg, choose)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != res.Messages {
		t.Fatalf("trace total %d != engine messages %d", r.Total(), res.Messages)
	}
	if r.PerTag()["eig"] != res.Messages {
		t.Fatalf("all Step-1 messages should be eig-tagged: %v", r.PerTag())
	}
	// Every process sent something.
	for i := 0; i < 4; i++ {
		if r.PerSender()[i] == 0 {
			t.Fatalf("process %d sent nothing", i)
		}
	}
}

func TestRecorderOnAsyncRun(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inputs := make([]vec.V, 4)
	for i := range inputs {
		inputs[i] = vec.Of(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	r := New(1 << 18)
	cfg := &consensus.AsyncConfig{
		N: 4, F: 1, D: 3, Inputs: inputs, Rounds: 4,
		Mode:  consensus.ModeRelaxed,
		Trace: r.Hook(),
	}
	res, err := consensus.RunAsync(context.Background(), transport.Plane{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != res.Messages {
		t.Fatalf("trace total %d != delivered %d", r.Total(), res.Messages)
	}
	if r.PerTag()["rbc"] != r.Total() {
		t.Fatalf("async messages should all be rbc: %v", r.PerTag())
	}
}
