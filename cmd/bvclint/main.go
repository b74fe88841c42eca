// Command bvclint is the repo's multichecker: it runs the six
// internal/analysis passes (nodeterminism, maporder, errwrap, floateq,
// seedflow, quorumgate; see `bvclint -list`) over the module and exits
// non-zero on any finding. The one suppression form covers a single
// line:
//
//	//bvclint:allow <analyzer> -- <justification>
//
// (own-line directives cover the next line, trailing directives their
// own line). Directives are themselves audited: one that no longer
// suppresses anything is reported stale.
//
// Run it via `make lint` or directly:
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
		dir     = fs.String("C", ".", "run in this directory (module root)")
		list    = fs.Bool("list", false, "list analyzers and exit")
		only    = fs.String("only", "", "single analyzer name to run (default: all)")
		jsonOut = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
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

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bvclint: %v\n", err)
		return exitError
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
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
