package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// ErrWrap enforces that the package sentinels (ErrTooFewProcesses,
// ErrDeliveryViolated, ...) stay reachable through errors.Is at every
// wrap site. The public contract of Run(ctx, spec) — and the oracle in
// internal/simtest that classifies out-of-model executions as "typed
// failure" — match errors with errors.Is, so three shapes are banned:
//
//  1. fmt.Errorf passing a sentinel under any verb but %w: the message
//     mentions the sentinel but the chain loses it.
//  2. err == ErrX / err != ErrX: breaks once the error is wrapped.
//  3. returning an ad-hoc error (errors.New or a %w-less fmt.Errorf
//     with no sentinel argument) from a scoped package: callers get an
//     error no declared sentinel matches.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "sentinels must be wrapped with %w, matched with errors.Is, and every error path " +
		"must chain back to a declared sentinel",
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkSentinelCompare(pass, n)
				}
			case *ast.ReturnStmt:
				checkAdHocReturn(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkErrorfWrap pairs fmt.Errorf format verbs with their arguments
// and reports sentinel arguments bound to a verb other than %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	path, name := pkgFunc(pass.TypesInfo, call)
	if path != "fmt" || name != "Errorf" || len(call.Args) < 2 {
		return
	}
	format, ok := stringLit(call.Args[0])
	if !ok {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		if !exprIsSentinel(pass, arg) {
			continue
		}
		if i >= len(verbs) {
			continue // vet territory: too few verbs
		}
		if verbs[i] != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel %s passed to fmt.Errorf under %%%c; use %%w so errors.Is still matches the wrapped chain",
				exprText(arg), verbs[i])
		}
	}
}

// checkSentinelCompare flags direct ==/!= against a sentinel.
func checkSentinelCompare(pass *Pass, bin *ast.BinaryExpr) {
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if exprIsSentinel(pass, side) {
			pass.Reportf(bin.Pos(),
				"direct comparison against sentinel %s misses wrapped errors; use errors.Is(err, %s)",
				exprText(side), exprText(side))
			return
		}
	}
}

// checkAdHocReturn flags `return ..., errors.New(...)` and
// `return ..., fmt.Errorf(<no %w, no sentinel arg>)`: errors minted at
// the return site that no declared sentinel can ever match.
func checkAdHocReturn(pass *Pass, ret *ast.ReturnStmt) {
	for _, res := range ret.Results {
		call, ok := res.(*ast.CallExpr)
		if !ok {
			continue
		}
		path, name := pkgFunc(pass.TypesInfo, call)
		switch {
		case path == "errors" && name == "New":
			pass.Reportf(call.Pos(),
				"ad-hoc errors.New at return site is unreachable by errors.Is; wrap a declared package sentinel with fmt.Errorf(\"...: %%w\", ErrX)")
		case path == "fmt" && name == "Errorf":
			format, ok := stringLit(call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				continue
			}
			sentinelArg := false
			for _, arg := range call.Args[1:] {
				if exprIsSentinel(pass, arg) {
					sentinelArg = true
					break
				}
			}
			if !sentinelArg {
				pass.Reportf(call.Pos(),
					"returned fmt.Errorf has no %%w and no sentinel: callers cannot match it with errors.Is; wrap a declared package sentinel")
			}
		}
	}
}

func exprIsSentinel(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(e) != nil && isErrorSentinel(pass.TypesInfo.ObjectOf(e))
	case *ast.SelectorExpr:
		return pass.TypesInfo.ObjectOf(e.Sel) != nil && isErrorSentinel(pass.TypesInfo.ObjectOf(e.Sel))
	}
	return false
}

func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
		return e.Sel.Name
	}
	return "?"
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// formatVerbs returns the verb letters of a Printf format string in
// argument order, skipping %% and flag/width/precision runs. Indexed
// arguments (%[1]d) are rare in this codebase and treated positionally.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.[]*", rune(format[i])) {
			i++
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}
