package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatEq flags exact ==/!= between computed floating-point values in
// the geometry packages. The δ*(S) bounds of Table 1 (Theorems 9/12,
// Conjecture 1) are validated by predicates that must use an explicit
// tolerance (vec.ApproxEqual, the `tol` parameters threaded through
// InRelaxedHull and the other geom predicates); an exact comparison
// that happens to pass on one machine's rounding is precisely the kind
// of silent nondeterminism the reproduction exists to rule out.
//
// Two comparisons stay legal, because they are exactness *decisions*
// rather than accidents:
//   - comparison against a compile-time constant (x == 0 division
//     guards, x != 1 clamps): the constant states the intent;
//   - comparisons inside designated tolerance/equality helpers, whose
//     entire job is to define equality (names matching Equal/Approx/
//     Eq/Near/Within, e.g. vec.Equal, vec.ApproxEqual).
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc: "flag exact ==/!= on computed floats in geometry packages; use the tolerance helpers " +
		"(vec.ApproxEqual, the tol parameters) instead",
	Run: runFloatEq,
}

func runFloatEq(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if toleranceHelper(fn.Name.Name) {
				return false // the helper defines equality; skip its body
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if !isFloat(info.TypeOf(bin.X)) && !isFloat(info.TypeOf(bin.Y)) {
					return true
				}
				// A constant operand is a deliberate exactness claim.
				if isConst(info, bin.X) || isConst(info, bin.Y) {
					return true
				}
				pass.Reportf(bin.Pos(),
					"exact %s on computed float64 values; rounding differs across platforms — compare within a tolerance (vec.ApproxEqual / a tol parameter)",
					bin.Op)
				return true
			})
			return false
		})
	}
	return nil
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// toleranceHelper matches function names whose contract is to define
// (approximate or exact) equality.
func toleranceHelper(name string) bool {
	for _, frag := range []string{"Equal", "Approx", "Near", "Within", "SameFloat"} {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return name == "eq" || strings.HasSuffix(name, "Eq")
}
