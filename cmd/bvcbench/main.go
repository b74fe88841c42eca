// Command bvcbench regenerates every table and figure of the paper's
// reproduction (experiments E1-E21 of DESIGN.md), printing one
// pass/fail-annotated table per experiment.
//
// Usage:
//
//	bvcbench                     # run everything at default budgets
//	bvcbench -exp E6             # run one experiment
//	bvcbench -quick              # small sweeps (seconds, used by CI)
//	bvcbench -trials 10 -seed 3  # more repetitions, different seed
//	bvcbench -csv                # append CSV dumps of each table
//	bvcbench -parallel           # fan experiments across the batch engine
//	bvcbench -metrics-out m.json # per-experiment metrics deltas + totals
//	bvcbench -pprof :6060        # expose pprof/expvar while running
//
// Exit codes: 0 all pass, 1 a failed experiment or run-time error,
// 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	bvc "relaxedbvc"
	"relaxedbvc/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bvcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "run a single experiment id (e.g. E6); empty = all")
		seed      = fs.Int64("seed", 1, "random seed")
		trials    = fs.Int("trials", 5, "trials per configuration")
		quick     = fs.Bool("quick", false, "restrict sweeps to small dimensions")
		csv       = fs.Bool("csv", false, "also print each table as CSV")
		list      = fs.Bool("list", false, "list experiment ids and exit")
		parallel  = fs.Bool("parallel", false, "run experiments concurrently on the batch engine")
		workers   = fs.Int("workers", 0, "worker pool size for -parallel (0 = GOMAXPROCS)")
		metOut    = fs.String("metrics-out", "", "write per-experiment metrics deltas and registry totals to this JSON file (runs experiments sequentially for exact attribution)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and an expvar metrics snapshot on this address (e.g. :6060) while running")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *pprofAddr != "" {
		addr, err := bvc.ServeDebug(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "bvcbench: -pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pprof/expvar listening on http://%s/debug/pprof/\n", addr)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintln(stdout, e.ID)
		}
		return 0
	}

	opt := experiments.Options{Seed: *seed, Trials: *trials, Quick: *quick}
	failures := 0
	render := func(o *experiments.Outcome) {
		o.Render(stdout)
		if *csv && o.Table != nil {
			fmt.Fprintln(stdout, "-- csv --")
			o.Table.CSV(stdout)
			fmt.Fprintln(stdout)
		}
		if !o.Pass {
			failures++
		}
	}

	switch {
	case *metOut != "":
		if *exp != "" || *parallel {
			fmt.Fprintln(stderr, "bvcbench: -metrics-out runs every experiment sequentially; it is incompatible with -exp and -parallel")
			return 2
		}
		outcomes := experiments.RunAllInstrumented(context.Background(), opt)
		for _, o := range outcomes {
			render(o)
		}
		doc := experiments.BuildMetricsDoc(outcomes, bvc.MetricsSnapshot())
		if err := doc.Write(*metOut); err != nil {
			fmt.Fprintf(stderr, "bvcbench: -metrics-out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *metOut)
	case *exp != "":
		found := false
		for _, e := range experiments.Registry() {
			if strings.EqualFold(e.ID, *exp) {
				render(e.Run(opt))
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "bvcbench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
	case *parallel:
		// The engine preserves registry order in its results, so the
		// report reads identically to a sequential run.
		for _, o := range experiments.RunAll(context.Background(), opt, *workers) {
			render(o)
		}
	default:
		for _, e := range experiments.Registry() {
			render(e.Run(opt))
		}
	}

	if failures > 0 {
		fmt.Fprintf(stderr, "bvcbench: %d experiment(s) FAILED\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "all experiments PASS")
	return 0
}
