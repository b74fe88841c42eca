// Package analysis is the repo's static-analysis suite: a small
// go/analysis-style framework (stdlib-only — the container pins the
// module to zero external dependencies, so golang.org/x/tools is
// deliberately not imported) plus six analyzers that enforce the
// invariants the Vaidya–Garg-style BVC proofs assume of every
// execution — the same Spec gives the same bits, and every quorum
// threshold is the one the proof uses:
//
//   - nodeterminism: no wall-clock / global-RNG / process-identity
//     entropy inside protocol packages (seeded replay).
//   - maporder: no order-sensitive work (message emission, escaping
//     appends, float accumulation) inside `for range` over a map.
//   - errwrap: package sentinels reach errors.Is — %w wrapping and no
//     ad-hoc errors from the consensus/sched/transport entry points.
//   - floateq: no exact ==/!= on computed floats in the geometry
//     packages that validate the Table 1 δ*(S) bounds.
//   - seedflow: a function that accepts a seed must derive every RNG
//     it builds from that seed, through in-package callees too.
//   - quorumgate: quorum comparisons in the protocol packages go
//     through named threshold helpers.
//
// The cmd/bvclint driver applies the analyzers over the module with
// per-analyzer package scopes, honours //bvclint:allow suppression
// directives (the one suppression form), and exits non-zero on any
// finding. See DESIGN.md §9.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the passes could be
// ported to the upstream framework without rewriting their Run
// functions.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //bvclint:allow directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and
	// why the reproduction needs it.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package into an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Src maps each file name (as recorded in Fset) to its source
	// bytes; the directive scanner uses it to distinguish own-line
	// from trailing comments.
	Src map[string][]byte

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// CheckPackage runs the given analyzers over one package and filters
// the findings through the //bvclint:allow directive pipeline.
// Directive problems (unknown analyzer name, missing justification)
// surface as diagnostics of the pseudo-analyzer "bvclint". No scope
// filtering happens here — the analysistest harness calls this with
// fixture packages whose import paths are arbitrary.
func CheckPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Src:       pkg.Src,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	dirs, dirDiags := scanDirectives(pkg, known)
	kept, used := applyDirectives(diags, dirs)
	// Staleness: a directive whose analyzer ran over this package and
	// suppressed nothing is a suppression with no target — either the
	// violation was fixed (delete the directive) or the directive is
	// mis-addressed and silently disarming a future finding. Directives
	// naming analyzers that did NOT run stay exempt, so a partial run
	// (-only, a fixture harness) never flags another analyzer's allows.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for i, d := range dirs {
		if !used[i] && ran[d.analyzer] {
			dirDiags = append(dirDiags, Diagnostic{
				Analyzer: "bvclint",
				Pos:      d.pos,
				Message:  fmt.Sprintf("stale directive: %s reports nothing on the covered line; delete the //bvclint:allow (a suppression that suppresses nothing is a latent hole)", d.analyzer),
			})
		}
	}
	diags = append(kept, dirDiags...)
	sortDiagnostics(diags)
	return diags, nil
}

// RunAnalyzers is the driver entry point: it applies each analyzer to
// each package it is in scope for (DefaultScope) and runs the
// directive pipeline. Diagnostics come back sorted by file, line,
// column.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		var scoped []*Analyzer
		for _, a := range analyzers {
			if InScope(a, pkg.PkgPath) {
				scoped = append(scoped, a)
			}
		}
		diags, err := CheckPackage(pkg, scoped)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// --- shared type/AST helpers used by the analyzers ---

// pkgFunc resolves a call of the form pkg.F where pkg is an imported
// package, returning the package path and function name. It returns
// ("", "") for method calls, local calls and anything else.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// calleeFunc resolves the *types.Func a call dispatches to (package
// functions and methods alike), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isErrorSentinel reports whether obj is a package-level variable of
// type error whose name starts with "Err" — the naming convention all
// sentinel declarations in this module follow.
func isErrorSentinel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() { // package level only
		return false
	}
	if len(v.Name()) < 3 || v.Name()[:3] != "Err" {
		return false
	}
	return types.AssignableTo(v.Type(), errorType)
}

var errorType = types.Universe.Lookup("error").Type()

// declaredOutside reports whether the object bound to id was declared
// outside the [lo, hi] source range (e.g. outside a loop body).
func declaredOutside(info *types.Info, id *ast.Ident, lo, hi token.Pos) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < lo || obj.Pos() > hi
}

// refersTo reports whether any identifier in the subtree rooted at n
// resolves to one of the given objects.
func refersTo(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && objs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
