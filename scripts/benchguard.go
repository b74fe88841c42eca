// Command benchguard gates a soak summary: it loads the stable-JSON
// document `bvcsoak -summary` wrote and fails on any unshrunk failure —
// a failing block whose reproducer did not replay-confirm is either a
// nondeterminism bug or an untrustworthy corpus entry, and neither may
// land. It runs nothing itself; performance is judged by
// BENCHMARK.json and `bash benchmark/run.sh --compare`, not here.
//
// Usage:
//
//	go run ./scripts -soak                                # gate soak-summary.json
//	go run ./scripts -soak -soak-summary soak-smoke.json  # gate another summary
package main

import (
	"flag"
	"fmt"
	"os"

	"relaxedbvc/internal/soak"
)

func main() {
	var (
		soakMode = flag.Bool("soak", false, "gate a soak summary document (the only mode)")
		soakSum  = flag.String("soak-summary", "soak-summary.json", "soak summary written by bvcsoak -summary")
	)
	flag.Parse()
	if !*soakMode {
		flag.Usage()
		os.Exit(2)
	}
	guardSoak(*soakSum)
}

// guardSoak loads a soak summary and fails on any unshrunk failure.
// Shrunk, replay-confirmed failures are allowed through — they become
// corpus regression entries that the PR smoke job's corpus replay keeps
// catching — but a reproducer that does not reproduce is never
// acceptable.
func guardSoak(path string) {
	sum, err := soak.LoadSummary(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: soak: %v\n", err)
		os.Exit(1)
	}
	sum.Render(os.Stdout)
	if sum.UnshrunkFailures > 0 {
		for _, f := range sum.Failing {
			if !f.Shrunk {
				fmt.Fprintf(os.Stderr, "benchguard: soak: block %d seed %d (%s, %s) failed but its replay did not reproduce the signature\n",
					f.Block, f.Seed.Seed, f.Seed.Protocol, f.Seed.Outcome)
			}
		}
		fmt.Fprintf(os.Stderr, "benchguard: soak: FAIL: %d unshrunk failure(s)\n", sum.UnshrunkFailures)
		os.Exit(1)
	}
	fmt.Printf("soak guard PASS (%d seeds, %d failing blocks all shrunk and replay-confirmed)\n",
		sum.SeedsRun, len(sum.Failing))
}
