// Command bvcsoak is the deterministic soak driver: it replays a
// persisted seed corpus, then sweeps base seeds 0, 1, 2, … of generated
// consensus instances through the batch engine. Blocks run one at a
// time in this process, on -shards batch workers.
//
// A soak exits 1 when any seed failed (an invariant violation, an
// untyped error, a typed degradation under no or within-model faults,
// or a mesh/sim divergence) or when a failing seed's reproducer did not
// replay to its signature; shrunk degradations of a strict out-of-model
// soak pass.
//
// Usage examples:
//
//	# 50k-seed soak on 4 workers, corpus-backed
//	bvcsoak -budget 50000 -shards 4 -corpus corpus
//
//	# 10-minute nightly soak, strict out-of-model hunting, mesh cross-check
//	bvcsoak -budget 10m -regime out -strict -transport mesh -corpus corpus
//
//	# CI regression gate: replay every persisted corpus seed
//	bvcsoak -replay-corpus -corpus corpus
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"relaxedbvc/internal/soak"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one soak or corpus replay, and returns
// the exit code: 0 clean, 1 a failed soak or a bad option, 2 a command
// line the flag set rejected.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bvcsoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		replayCorpus = fs.Bool("replay-corpus", false, "replay every corpus entry and verify it reproduces, then exit")
		prune        = fs.Bool("prune-stale", false, "with -replay-corpus: delete entries that now pass")

		budget    = fs.String("budget", "10000", "seed count (e.g. 50000) or wall-clock duration (e.g. 10m)")
		shards    = fs.Int("shards", 4, "batch workers per block")
		baseSeed  = fs.Int64("seed", 0, "base seed folded into every generated instance")
		regime    = fs.String("regime", "mixed", "fault regime: none|within-model|out-of-model|mixed")
		protocols = fs.String("protocols", "", "comma-separated protocol subset (empty = all)")
		strict    = fs.Bool("strict", false, "shrink and replay-confirm graceful out-of-model degradations like failures (they do not fail the soak)")
		transport = fs.String("transport", "sim", "sim, or mesh to cross-check every passing seed the mesh accepts")

		corpusDir = fs.String("corpus", "", "corpus directory (replayed first, shrunk failing seeds persisted)")
		summary   = fs.String("summary", "", "write the stable-JSON summary to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replayCorpus {
		return runReplay(ctx, stdout, stderr, *corpusDir, *prune)
	}
	seeds, dur, err := parseBudget(*budget)
	var protos []string
	if err == nil {
		protos, err = soak.NormalizeProtocols(*protocols)
	}
	// The library maps a zero Shards to its default; a flag means what
	// it says.
	switch {
	case err != nil: // the budget or protocol error stands
	case *prune:
		err = errors.New("-prune-stale needs -replay-corpus")
	case *shards < 1:
		err = fmt.Errorf("-shards %d must be at least 1", *shards)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bvcsoak: %v\n", err)
		return 1
	}
	return runSoak(ctx, stdout, stderr, *summary, soak.Options{
		SeedBudget: seeds, Duration: dur, BaseSeed: *baseSeed, Shards: *shards,
		Regime: *regime, Protocols: protos, Strict: *strict, Transport: *transport,
		Corpus: *corpusDir, Log: stderr,
	})
}

// parseBudget reads a seed count or a wall-clock duration.
func parseBudget(s string) (int64, time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("seed budget %d must be positive", n)
		}
		return n, 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return 0, 0, fmt.Errorf("duration budget %v must be positive", d)
		}
		return 0, d, nil
	}
	return 0, 0, fmt.Errorf("budget %q is neither a seed count nor a duration", s)
}

func runSoak(ctx context.Context, stdout, stderr io.Writer, summary string, opt soak.Options) int {
	sum, err := soak.Run(ctx, opt)
	if err != nil {
		fmt.Fprintf(stderr, "bvcsoak: %v\n", err)
		return 1
	}
	sum.Render(stdout)
	if summary != "" {
		data, err := sum.Encode()
		if err != nil {
			fmt.Fprintf(stderr, "bvcsoak: %v\n", err)
			return 1
		}
		if err := os.WriteFile(summary, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "bvcsoak: write summary: %v\n", err)
			return 1
		}
	}
	if err := sum.Gate(); err != nil {
		fmt.Fprintf(stderr, "bvcsoak: FAIL: %v\n", err)
		return 1
	}
	return 0
}

func runReplay(ctx context.Context, stdout, stderr io.Writer, dir string, prune bool) int {
	if dir == "" {
		fmt.Fprintln(stderr, "bvcsoak: -replay-corpus needs -corpus")
		return 1
	}
	results, err := soak.ReplayCorpus(ctx, dir, prune)
	for _, r := range results {
		line := fmt.Sprintf("%-10s %s seed=%d proto=%s outcome=%s", r.Verdict, r.File, r.Entry.Seed, r.Entry.Protocol, r.Entry.Outcome)
		if r.Detail != "" {
			line += " — " + r.Detail
		}
		fmt.Fprintln(stdout, line)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bvcsoak: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "corpus replay: %d entries verified\n", len(results))
	return 0
}
