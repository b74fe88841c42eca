// Command bvcnode runs ONE node of a Byzantine vector consensus cluster
// over real TCP: it joins a static peer set, accepts proposal traffic on
// an HTTP front door, runs the chosen synchronous protocol over the
// library's transport layer once per epoch, and serves the decisions
// back over HTTP. Metrics and pprof are exposed via -debug.
//
// Every node of the cluster runs the same command with the same -peers
// list and its own -id. The cluster decides bit-for-bit the same
// vectors as the deterministic simulation of the same instance.
//
// Usage examples:
//
//	# two-node loopback cluster, one epoch each (run in two shells)
//	bvcnode -id 0 -peers 127.0.0.1:9000,127.0.0.1:9001 -protocol exact -f 0 -input 1,2
//	bvcnode -id 1 -peers 127.0.0.1:9000,127.0.0.1:9001 -protocol exact -f 0 -input 3,4
//
//	# streaming decisions: one ACS epoch per queued proposal
//	bvcnode -id 0 -peers ... -stream -epochs 5 -input 1,2
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	bvc "relaxedbvc"
	"relaxedbvc/internal/batch"
)

func main() {
	var (
		id        = flag.Int("id", 0, "this node's id (index into -peers)")
		peersFlag = flag.String("peers", "", "comma-separated host:port listen addresses, one per node id")
		protocol  = flag.String("protocol", "algo", "algo | exact | k | scalar")
		f         = flag.Int("f", 1, "max Byzantine processes")
		d         = flag.Int("d", 2, "input dimension")
		k         = flag.Int("k", 2, "projection size for -protocol k")
		p         = flag.Float64("p", 2, "Lp norm for -protocol algo (1, 2, or 0 meaning inf)")
		input     = flag.String("input", "", "default input vector, comma-separated floats (zeros if empty)")
		epochs    = flag.Int("epochs", 1, "consensus epochs to run (0 = until interrupted)")
		interval  = flag.Duration("interval", 0, "pause between epochs (use with -epochs 0)")
		front     = flag.String("front", "", "front-door HTTP address for proposals/decisions (off if empty)")
		debugAddr = flag.String("debug", "", "metrics/pprof HTTP address (off if empty)")
		stream    = flag.Bool("stream", false, "run the streaming ACS decision layer: -epochs proposals decide as one multi-epoch stream")
	)
	flag.Parse()

	spec, err := buildSpec(*protocol, *f, *d, *k, *p, *stream)
	if err != nil {
		fatalf("%v", err)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		fatalf("%v", err)
	}
	spec.N = len(peers)
	if *id < 0 || *id >= spec.N {
		fatalf("-id %d outside the %d-node peer list", *id, spec.N)
	}
	defIn, err := parseInput(*input, *d)
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		addr, err := bvc.ServeDebug(*debugAddr)
		if err != nil {
			fatalf("debug server: %v", err)
		}
		fmt.Printf("debug (pprof+expvar) on http://%s/debug/\n", addr)
	}

	node := &nodeState{
		spec:      spec,
		self:      *id,
		peers:     peers,
		defIn:     defIn,
		proposals: make(chan bvc.Vector, proposalQueueCap),
	}
	if *front != "" {
		addr, err := node.serveFront(*front)
		if err != nil {
			fatalf("front door: %v", err)
		}
		fmt.Printf("front door on http://%s/ (POST /propose, GET /decision)\n", addr)
	}

	if *stream {
		if err := node.runStream(ctx, *epochs); err != nil {
			fatalf("stream: %v", err)
		}
		return
	}
	// One pacing timer reused across epochs; time.After in this loop
	// would leak a live timer per epoch on long runs.
	var pace *time.Timer
	for epoch := 0; *epochs == 0 || epoch < *epochs; epoch++ {
		if epoch > 0 && *interval > 0 {
			if pace == nil {
				pace = time.NewTimer(*interval)
			} else {
				pace.Reset(*interval)
			}
			select {
			case <-pace.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		if err := node.runEpoch(ctx, epoch); err != nil {
			fatalf("epoch %d: %v", epoch, err)
		}
	}
	if pace != nil {
		pace.Stop()
	}
}

// proposalQueueCap bounds buffered front-door proposals; beyond it the
// front door sheds load with 503s instead of growing without bound.
const proposalQueueCap = 64

// nodeState is the long-lived state of one bvcnode process.
type nodeState struct {
	spec  bvc.Spec
	self  int
	peers map[int]string
	defIn bvc.Vector

	proposals chan bvc.Vector

	mu       sync.Mutex
	decision *decisionRecord
}

// decisionRecord is the JSON shape of GET /decision.
type decisionRecord struct {
	Epoch  int       `json:"epoch"`
	Node   int       `json:"node"`
	Input  []float64 `json:"input"`
	Output []float64 `json:"output"`
	Delta  float64   `json:"delta"`
	Rounds int       `json:"rounds"`
	// Subset and Fingerprint are set in -stream mode: the epoch's agreed
	// slot ids, and (on the final record) the whole stream's digest.
	Subset      []int  `json:"subset,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// runEpoch runs one consensus instance over TCP: the node's input is
// the oldest queued front-door proposal, or the -input default.
func (s *nodeState) runEpoch(ctx context.Context, epoch int) error {
	in := s.defIn
	select {
	case v := <-s.proposals:
		in = v
	default:
	}
	spec := s.spec
	spec.Inputs = make([]bvc.Vector, spec.N)
	spec.Inputs[s.self] = in
	res, err := bvc.Run(ctx, spec, bvc.WithTransport(bvc.Transport{
		Kind: bvc.TransportTCP, Self: s.self, Peers: s.peers,
	}))
	if err != nil {
		return err
	}
	rec := &decisionRecord{
		Epoch:  epoch,
		Node:   s.self,
		Input:  in,
		Output: res.Outputs[s.self],
		Delta:  res.Delta[s.self],
		Rounds: res.Rounds,
	}
	s.mu.Lock()
	s.decision = rec
	s.mu.Unlock()
	out, _ := json.Marshal(rec)
	fmt.Println(string(out))
	return nil
}

// runStream runs one multi-epoch ACS stream over TCP: each epoch's own
// proposal is the next queued front-door proposal (the -input default
// when the queue runs dry), and every sealed epoch prints as one JSON
// line. The final line carries the stream fingerprint every correct
// peer must match.
func (s *nodeState) runStream(ctx context.Context, epochs int) error {
	if epochs <= 0 {
		return fmt.Errorf("-stream needs -epochs >= 1 (the stream length is the epoch count)")
	}
	spec := s.spec
	spec.Proposals = make([][]bvc.Vector, epochs)
	inputs := make([]bvc.Vector, epochs)
	for e := 0; e < epochs; e++ {
		in := s.defIn
		select {
		case v := <-s.proposals:
			in = v
		default:
		}
		inputs[e] = in
		row := make([]bvc.Vector, spec.N)
		row[s.self] = in
		spec.Proposals[e] = row
	}
	res, err := bvc.Run(ctx, spec, bvc.WithTransport(bvc.Transport{
		Kind: bvc.TransportTCP, Self: s.self, Peers: s.peers,
	}))
	if err != nil {
		return err
	}
	stream := res.ACS[s.self]
	for _, ep := range stream {
		rec := &decisionRecord{
			Epoch:  ep.Epoch,
			Node:   s.self,
			Input:  inputs[ep.Epoch],
			Output: ep.Output,
			Delta:  ep.Delta,
			Rounds: res.Rounds,
			Subset: ep.Subset,
		}
		if ep.Epoch == len(stream)-1 {
			rec.Fingerprint = bvc.ACSFingerprint(stream)
		}
		s.mu.Lock()
		s.decision = rec
		s.mu.Unlock()
		out, _ := json.Marshal(rec)
		fmt.Println(string(out))
	}
	return nil
}

// serveFront starts the proposal/decision HTTP server and returns its
// bound address.
func (s *nodeState) serveFront(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/propose", s.handlePropose)
	mux.HandleFunc("/decision", s.handleDecision)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // runs for process lifetime
	return ln.Addr().String(), nil
}

// handlePropose accepts one proposal per request-body line (comma-
// separated floats). The batch pool validates lines concurrently with
// panic isolation; valid vectors enter the bounded queue, and a full
// queue sheds the rest with 503 (backpressure to the client).
func (s *nodeState) handlePropose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var lines []string
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			lines = append(lines, t)
		}
	}
	if len(lines) == 0 {
		http.Error(w, "no proposals in body", http.StatusBadRequest)
		return
	}
	d := s.spec.D
	parsed := batch.Map(r.Context(), batch.Options{Workers: 4}, lines,
		func(_ context.Context, line string) (bvc.Vector, error) {
			return parseInput(line, d)
		})
	accepted, rejected, shed := 0, 0, 0
	for _, pr := range parsed {
		if pr.Err != nil {
			rejected++
			continue
		}
		select {
		case s.proposals <- pr.Value:
			accepted++
		default:
			shed++
		}
	}
	if shed > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	} else if accepted == 0 {
		w.WriteHeader(http.StatusBadRequest)
	}
	fmt.Fprintf(w, "accepted %d, rejected %d, shed %d (queue full)\n", accepted, rejected, shed)
}

func (s *nodeState) handleDecision(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rec := s.decision
	s.mu.Unlock()
	if rec == nil {
		http.Error(w, "no decision yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec) //nolint:errcheck // best-effort HTTP write
}

// buildSpec maps the protocol flags onto a Spec (inputs filled later).
// Streaming mode pipelines epochs through ACS instead of running
// one-shot instances; the -protocol kernel flags still pick the
// per-epoch decision norm.
func buildSpec(protocol string, f, d, k int, p float64, stream bool) (bvc.Spec, error) {
	spec := bvc.Spec{F: f, D: d}
	switch protocol {
	case "algo":
		if f < 1 {
			return spec, fmt.Errorf("-protocol algo needs -f >= 1 (the relaxation radius is defined against f faults); use -protocol exact for fault-free clusters")
		}
		spec.Protocol = bvc.ProtocolDeltaRelaxed
		if p == 0 {
			p = math.Inf(1)
		}
		spec.NormP = p
	case "exact":
		spec.Protocol = bvc.ProtocolExact
	case "k":
		spec.Protocol = bvc.ProtocolKRelaxed
		spec.K = k
	case "scalar":
		spec.Protocol = bvc.ProtocolScalar
	default:
		return spec, fmt.Errorf("unknown -protocol %q (use algo, exact, k or scalar)", protocol)
	}
	if stream {
		if f < 1 {
			return spec, fmt.Errorf("-stream needs -f >= 1 (ACS tolerates f Byzantine slots per epoch)")
		}
		spec.Protocol = bvc.ProtocolACS
		if spec.NormP == 0 && p != 0 {
			spec.NormP = p
		}
	}
	return spec, nil
}

// parsePeers splits the -peers list; position = node id.
func parsePeers(s string) (map[int]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-peers is required (comma-separated host:port, one per node)")
	}
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("-peers needs at least 2 addresses, got %d", len(parts))
	}
	peers := make(map[int]string, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-peers entry %d is empty", i)
		}
		peers[i] = p
	}
	return peers, nil
}

// parseInput parses a comma-separated float vector of dimension d
// (zeros when empty).
func parseInput(s string, d int) (bvc.Vector, error) {
	if s == "" {
		return bvc.NewVector(make([]float64, d)...), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("input %q has %d coordinates, want %d", s, len(parts), d)
	}
	v := make([]float64, d)
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("input coordinate %d: %q is not a finite number", i, p)
		}
		v[i] = x
	}
	return bvc.NewVector(v...), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bvcnode: "+format+"\n", args...)
	os.Exit(1)
}
