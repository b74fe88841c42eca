// Command bvclint is the repo's multichecker: it runs the twelve
// internal/analysis passes (see `bvclint -list`) over the module and
// exits non-zero on any finding. Suppress a single line with
//
//	//bvclint:allow <analyzer> -- <justification>
//
// (own-line directives cover the next line, trailing directives their
// own line) or add a whole-file entry to lint/exceptions.txt. Both
// suppression forms are themselves audited: a directive or exceptions
// entry that no longer suppresses anything is reported stale.
//
// Run it via `make lint` (or `make lint-strict`, which widens the
// concurrency analyzers to the binaries) or directly:
//
//	go run ./cmd/bvclint ./...
//	go run ./cmd/bvclint -json ./...
//	go run ./cmd/bvclint -list
//
// Exit codes: 0 clean, 1 findings, 2 load/usage/internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"relaxedbvc/internal/analysis"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bvclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir            = fs.String("C", ".", "run in this directory (module root)")
		exceptionsPath = fs.String("exceptions", "lint/exceptions.txt", "curated exceptions file, relative to -C (empty or missing file = no exceptions)")
		list           = fs.Bool("list", false, "list analyzers and exit")
		only           = fs.String("only", "", "single analyzer name to run (default: all)")
		jsonOut        = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		strict         = fs.Bool("strict", false, "widen analyzer scopes to the cmd/ binaries")
	)
	if err := fs.Parse(argv); err != nil {
		return exitError
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if *only != "" {
		a := analysis.ByName(*only)
		if a == nil {
			fmt.Fprintf(stderr, "bvclint: unknown analyzer %q (try -list)\n", *only)
			return exitError
		}
		analyzers = []*analysis.Analyzer{a}
	}

	var exceptions []analysis.Exception
	excFile := *exceptionsPath
	if excFile != "" && !filepath.IsAbs(excFile) {
		excFile = filepath.Join(*dir, excFile)
	}
	if excFile != "" {
		var err error
		exceptions, err = analysis.ParseExceptions(excFile)
		if err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "bvclint: %v\n", err)
			return exitError
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	opts := analysis.RunOptions{}
	if *strict {
		opts.Scope = analysis.InScopeStrict
	}
	// Exceptions staleness is only decidable on a full-suite,
	// whole-tree run: a single package or single analyzer legitimately
	// leaves other entries unmatched.
	if *only == "" && len(patterns) == 1 && patterns[0] == "./..." {
		opts.StaleExceptionsPath = *exceptionsPath
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bvclint: %v\n", err)
		return exitError
	}
	diags, err := analysis.RunAnalyzersOpts(pkgs, analyzers, exceptions, opts)
	if err != nil {
		fmt.Fprintf(stderr, "bvclint: %v\n", err)
		return exitError
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "bvclint: %v\n", err)
			return exitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "bvclint: %d finding(s)\n", len(diags))
		return exitFindings
	}
	return exitClean
}

// jsonDiag is the stable machine-readable shape of one finding; CI
// tooling and the GitHub problem matcher's JSON consumers key on these
// field names.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the diagnostics as one JSON array (always an array,
// `[]` when clean), in the driver's deterministic file/line order.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
