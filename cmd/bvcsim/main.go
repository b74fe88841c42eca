// Command bvcsim runs a single Byzantine vector consensus instance on the
// simulated network and prints the transcript summary: per-process
// outputs, the achieved relaxation radius delta, and the agreement and
// validity verdicts. It is a thin shell over the library's unified
// Run(ctx, spec) entry point.
//
// Usage examples:
//
//	bvcsim -mode algo  -n 4 -f 1 -d 3 -p 2 -adversary equivocate
//	bvcsim -mode exact -n 5 -f 1 -d 3 -adversary silent
//	bvcsim -mode k     -n 5 -f 1 -d 3 -k 2
//	bvcsim -mode async -n 4 -f 1 -d 3 -rounds 10 -adversary lie
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	bvc "relaxedbvc"
	"relaxedbvc/internal/viz"
	"relaxedbvc/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has printed what was wrong and the usage
	default:
		fmt.Fprintf(os.Stderr, "bvcsim: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set rejected.
var errUsage = errors.New("usage")

// run parses args, runs one instance and writes its summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bvcsim", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "algo", "algo | exact | k | scalar | convex | iterative | async | async-exact")
		n       = fs.Int("n", 4, "number of processes")
		f       = fs.Int("f", 1, "max Byzantine processes")
		d       = fs.Int("d", 3, "input dimension")
		k       = fs.Int("k", 2, "projection size for -mode k")
		p       = fs.Float64("p", 2, "Lp norm for -mode algo (1, 2, or 0 meaning inf)")
		rounds  = fs.Int("rounds", 10, "averaging rounds for async modes")
		seed    = fs.Int64("seed", 1, "random seed for inputs and schedules")
		adv     = fs.String("adversary", "equivocate", "none | silent | equivocate | fixed | random")
		wl      = fs.String("workload", "gauss", "input family: cube | gauss | sphere | cluster")
		verbose = fs.Bool("v", false, "print the agreed multiset")
		doTrace = fs.Bool("trace", false, "print a message-trace summary and the first events")
		svgOut  = fs.String("svg", "", "write a picture of the run to this file (2-D sync modes only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	rng := rand.New(rand.NewSource(*seed))
	gen, ok := workload.Generators()[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	inputs := gen(rng, *n, *d)
	norm := *p
	if norm == 0 {
		norm = math.Inf(1)
	}

	fmt.Fprintf(stdout, "relaxed byzantine vector consensus simulator\n")
	fmt.Fprintf(stdout, "mode=%s n=%d f=%d d=%d adversary=%s workload=%s seed=%d\n\n", *mode, *n, *f, *d, *adv, *wl, *seed)
	for i, in := range inputs {
		fmt.Fprintf(stdout, "  input %d: %v\n", i, in)
	}
	fmt.Fprintln(stdout)

	var rec *bvc.TraceRecorder
	if *doTrace {
		rec = bvc.NewTraceRecorder(1 << 16)
	}

	// Assemble the Spec for the chosen mode.
	spec := bvc.Spec{N: *n, F: *f, D: *d, Inputs: inputs}
	if rec != nil {
		spec.Trace = rec.Hook()
	}
	switch *mode {
	case "algo":
		spec.Protocol = bvc.ProtocolDeltaRelaxed
		spec.NormP = norm
	case "exact":
		spec.Protocol = bvc.ProtocolExact
	case "k":
		spec.Protocol = bvc.ProtocolKRelaxed
		spec.K = *k
	case "scalar":
		if *d != 1 {
			return errors.New("-mode scalar requires -d 1")
		}
		spec.Protocol = bvc.ProtocolScalar
	case "convex":
		spec.Protocol = bvc.ProtocolConvex
		spec.Directions = 4 * *d
	case "iterative":
		spec.Protocol = bvc.ProtocolIterative
		spec.Rounds = *rounds
	case "async", "async-exact":
		spec.Protocol = bvc.ProtocolAsync
		spec.Rounds = *rounds
		spec.Mode = bvc.ModeRelaxed
		if *mode == "async-exact" {
			spec.Mode = bvc.ModeExact
		}
		spec.Schedule = bvc.RandomSchedule(*seed + 7)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err := installAdversary(&spec, *mode, *adv, *seed); err != nil {
		return err
	}

	res, err := bvc.Run(context.Background(), spec)
	if err != nil {
		return fmt.Errorf("run failed: %w", err)
	}

	honest := honestIDs(&spec)
	nonFaulty := nonFaultyInputs(&spec, honest)
	switch *mode {
	case "algo", "exact", "k", "scalar":
		if err := printSync(stdout, &spec, res, *mode, *k, norm, *verbose, *svgOut); err != nil {
			return err
		}
	case "convex":
		printConvex(stdout, res, honest, nonFaulty)
	case "iterative":
		printIterative(stdout, &spec, res)
	case "async", "async-exact":
		printAsync(stdout, &spec, res, honest, *rounds)
	}

	if rec != nil {
		fmt.Fprintln(stdout)
		rec.Summary(stdout)
		fmt.Fprintln(stdout, "first events:")
		rec.Dump(stdout, 12)
	}
	return nil
}

// installAdversary scripts process n-1 with the named behavior in
// whichever Byzantine field the mode consults.
func installAdversary(spec *bvc.Spec, mode, adv string, seed int64) error {
	bad := spec.N - 1
	rng := rand.New(rand.NewSource(seed + 100))
	switch mode {
	case "algo", "exact", "k", "scalar", "convex":
		var b bvc.ByzantineBehavior
		switch adv {
		case "none":
			return nil
		case "silent":
			b = bvc.Silent()
		case "equivocate":
			b = bvc.Equivocator(
				workload.Gaussian(rng, 1, spec.D, 10)[0],
				workload.Gaussian(rng, 1, spec.D, 10)[0])
		case "fixed":
			b = bvc.FixedVector(workload.Gaussian(rng, 1, spec.D, 10)[0])
		case "random":
			b = bvc.RandomLiar(seed, spec.D, 10)
		default:
			return fmt.Errorf("unknown adversary %q", adv)
		}
		spec.Byzantine = map[int]bvc.ByzantineBehavior{bad: b}
	case "iterative":
		switch adv {
		case "none":
			return nil
		case "silent":
			spec.IterByzantine = map[int]bvc.IterByzantine{
				bad: bvc.IterByzantineFunc(func(int, int, bvc.Vector) bvc.Vector { return nil }),
			}
		default:
			lrng := rand.New(rand.NewSource(seed + 11))
			d := spec.D
			spec.IterByzantine = map[int]bvc.IterByzantine{
				bad: bvc.IterByzantineFunc(func(int, int, bvc.Vector) bvc.Vector {
					v := make([]float64, d)
					for i := range v {
						v[i] = lrng.NormFloat64() * 50
					}
					return bvc.NewVector(v...)
				}),
			}
		}
	case "async", "async-exact":
		switch adv {
		case "none":
		case "silent":
			spec.AsyncByzantine = map[int]*bvc.AsyncByzantine{
				bad: {SilentFrom: 0, CorruptFrom: bvc.NeverMisbehave},
			}
		case "lie", "equivocate", "fixed", "random":
			arng := rand.New(rand.NewSource(seed + 9))
			spec.AsyncByzantine = map[int]*bvc.AsyncByzantine{
				bad: {
					Input:       workload.Gaussian(arng, 1, spec.D, 8)[0],
					SilentFrom:  bvc.NeverMisbehave,
					CorruptFrom: bvc.NeverMisbehave,
				},
			}
		default:
			return fmt.Errorf("unknown adversary %q", adv)
		}
	}
	return nil
}

// honestIDs returns the process ids with no scripted behavior.
func honestIDs(spec *bvc.Spec) []int {
	var ids []int
	for i := 0; i < spec.N; i++ {
		_, a := spec.Byzantine[i]
		_, b := spec.AsyncByzantine[i]
		_, c := spec.IterByzantine[i]
		if !a && !b && !c {
			ids = append(ids, i)
		}
	}
	return ids
}

func nonFaultyInputs(spec *bvc.Spec, honest []int) *bvc.PointSet {
	pts := make([]bvc.Vector, len(honest))
	for j, i := range honest {
		pts[j] = spec.Inputs[i]
	}
	return bvc.NewPointSet(pts...)
}

func printSync(w io.Writer, spec *bvc.Spec, res *bvc.Result, mode string, k int, p float64, verbose bool, svgOut string) error {
	honest := honestIDs(spec)
	nonFaulty := nonFaultyInputs(spec, honest)
	fmt.Fprintf(w, "broadcast: %d rounds, %d messages\n\n", res.Rounds, res.Messages)
	if verbose {
		fmt.Fprintf(w, "agreed multiset at process %d:\n", honest[0])
		for c := 0; c < spec.N; c++ {
			fmt.Fprintf(w, "  from %d: %v\n", c, res.AgreedSet[honest[0]].At(c))
		}
		fmt.Fprintln(w)
	}
	for _, i := range honest {
		fmt.Fprintf(w, "  process %d output: %v", i, res.Outputs[i])
		if mode == "algo" {
			fmt.Fprintf(w, "   (delta = %.6g)", res.Delta[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "agreement error (Linf): %.3g\n", bvc.AgreementError(res.Outputs, honest))
	out := res.Outputs[honest[0]]
	switch mode {
	case "exact", "scalar":
		fmt.Fprintf(w, "exact validity: %v\n", bvc.CheckExactValidity(out, nonFaulty, 1e-6))
	case "k":
		fmt.Fprintf(w, "%d-relaxed validity: %v\n", k, bvc.CheckKValidity(out, nonFaulty, k, 1e-6))
	case "algo":
		delta := res.Delta[honest[0]]
		dist, _ := bvc.DistToHull(out, nonFaulty, p)
		fmt.Fprintf(w, "(delta,p)-relaxed validity: %v (distance %.6g <= delta %.6g)\n",
			bvc.CheckDeltaValidity(out, nonFaulty, delta, p, 1e-6), dist, delta)
	}
	if svgOut == "" {
		return nil
	}
	if spec.D != 2 {
		fmt.Fprintln(w, "\n-svg requires -d 2; skipping picture")
		return nil
	}
	var byzClaims []bvc.Vector
	for id := range spec.Byzantine {
		byzClaims = append(byzClaims, res.AgreedSet[honest[0]].At(id))
	}
	cs := viz.ConsensusScene{
		HonestInputs: nonFaulty.Points(),
		ByzInputs:    byzClaims,
		Output:       out,
		Title:        fmt.Sprintf("%s n=%d f=%d", mode, spec.N, spec.F),
	}
	if mode == "algo" {
		cs.Delta = res.Delta[honest[0]]
	}
	fh, err := os.Create(svgOut)
	if err != nil {
		return fmt.Errorf("svg: %w", err)
	}
	err = viz.RenderConsensus(fh, cs, 520, 520)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("svg: %w", err)
	}
	fmt.Fprintf(w, "\nwrote %s\n", svgOut)
	return nil
}

func printConvex(w io.Writer, res *bvc.Result, honest []int, nonFaulty *bvc.PointSet) {
	fmt.Fprintf(w, "broadcast: %d rounds, %d messages\n\n", res.Rounds, res.Messages)
	fmt.Fprintf(w, "agreed polytope (%d support points) at process %d:\n", len(res.Vertices[honest[0]]), honest[0])
	for i, v := range res.Vertices[honest[0]] {
		fmt.Fprintf(w, "  vertex %2d: %v\n", i, v)
	}
	agree := true
	base := res.Vertices[honest[0]]
	for _, i := range honest[1:] {
		other := res.Vertices[i]
		if len(other) != len(base) {
			agree = false
			continue
		}
		for v := range base {
			for c := range base[v] {
				if base[v][c] != other[v][c] {
					agree = false
				}
			}
		}
	}
	fmt.Fprintf(w, "\npolytope agreement: %v\n", agree)
	fmt.Fprintf(w, "convex validity:    %v\n", bvc.CheckConvexValidity(base, nonFaulty, 1e-6))
}

func printIterative(w io.Writer, spec *bvc.Spec, res *bvc.Result) {
	fmt.Fprintf(w, "honest range per round:\n")
	for r, v := range res.RangeHistory {
		fmt.Fprintf(w, "  round %2d: %.6g\n", r, v)
	}
	fmt.Fprintf(w, "\nfinal estimates:\n")
	for i := 0; i < spec.N; i++ {
		if _, bad := spec.IterByzantine[i]; bad {
			continue
		}
		fmt.Fprintf(w, "  process %d: %v\n", i, res.Outputs[i])
	}
	fmt.Fprintf(w, "\nmessages delivered: %d\n", res.Messages)
}

func printAsync(w io.Writer, spec *bvc.Spec, res *bvc.Result, honest []int, rounds int) {
	fmt.Fprintf(w, "delivered %d messages in %d steps\n\n", res.Messages, res.Steps)
	for _, i := range honest {
		fmt.Fprintf(w, "  process %d output: %v", i, res.Outputs[i])
		if spec.Mode == bvc.ModeRelaxed {
			fmt.Fprintf(w, "   (round-0 delta = %.6g)", res.Delta[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "epsilon-agreement after %d rounds: %.3g\n", rounds, bvc.AgreementError(res.Outputs, honest))
}
