package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SeedFlow checks that a function which accepts a seed actually
// threads that seed into every RNG it constructs. The simtest
// GenSpec/Sweep machinery, the fault substrate's hash-derived link
// patterns and the workload generators all promise "same seed, same
// run"; a `func f(seed int64)` that then calls rand.NewSource(42) or
// draws from the global source honors the signature but not the
// contract, and the bug only surfaces as an unreproducible failure
// months later.
//
// The analyzer is interprocedural within the package: it taints the
// seed parameters, propagates the taint through assignments AND
// through call edges of the package call graph (callgraph.go), and
// reports every RNG the function constructs — directly or through any
// chain of in-package helpers — whose seed derives from no seed
// parameter, plus any global math/rand draw (again, direct or through
// a helper) inside such a function. Helper summaries record which of
// their parameters reach an RNG constructor, so `r := newRNG(42)`
// inside a seed-taking function is a finding even though the
// rand.NewSource call lives in newRNG's body.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "functions taking a seed parameter must derive every RNG they construct from it",
	Run:  runSeedFlow,
}

// paramMask is a bitset over a function's parameters (by index).
type paramMask uint64

// rngSite is one RNG construction a function performs, transitively:
// either a rand.NewSource/NewPCG/NewChaCha8 call in its own body, or
// a call to an in-package function that (transitively) constructs one.
type rngSite struct {
	pos token.Pos // site to report in this function's body
	// origin is the ultimate constructor position; it keeps distinct
	// callee sites distinct when several compose onto one call site.
	origin token.Pos
	what   string // "math/rand.NewSource" or "call to newRNG"
	deps   paramMask
}

// flowSite is one global math/rand draw, transitively.
type flowSite struct {
	pos    token.Pos
	origin token.Pos
	what   string
}

// seedflowSummary is the per-function summary the fixpoint engine
// computes: both slices are pos/origin-sorted sets, so summaries grow
// monotonically and compare cheaply.
type seedflowSummary struct {
	rngs    []rngSite
	globals []flowSite
}

func (a seedflowSummary) equalTo(b seedflowSummary) bool {
	if len(a.rngs) != len(b.rngs) || len(a.globals) != len(b.globals) {
		return false
	}
	for i := range a.rngs {
		if a.rngs[i] != b.rngs[i] {
			return false
		}
	}
	for i := range a.globals {
		if a.globals[i] != b.globals[i] {
			return false
		}
	}
	return true
}

func runSeedFlow(pass *Pass) error {
	graph := BuildCallGraph(pass)
	store := NewSummaries(graph,
		func(node *FuncNode, get func(*types.Func) seedflowSummary) seedflowSummary {
			return computeSeedflowSummary(pass.TypesInfo, node, get)
		},
		seedflowSummary.equalTo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			seeds := seedParams(pass.TypesInfo, fn)
			if len(seeds) == 0 {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			seedMask := masksOf(obj, seeds)
			sum := store.Get(obj)
			for _, site := range sum.rngs {
				if site.deps&seedMask != 0 {
					continue
				}
				if strings.HasPrefix(site.what, "call to ") {
					pass.Reportf(site.pos,
						"%s constructs an RNG not derived from the function's seed parameter; replays of the same seed will diverge",
						site.what)
				} else {
					pass.Reportf(site.pos,
						"%s argument is not derived from the function's seed parameter; replays of the same seed will diverge",
						site.what)
				}
			}
			for _, site := range sum.globals {
				if strings.HasPrefix(site.what, "call to ") {
					pass.Reportf(site.pos,
						"%s draws from the global math/rand source inside a seed-taking function; thread the seed through instead",
						site.what)
				} else {
					pass.Reportf(site.pos,
						"global %s inside a seed-taking function ignores the seed parameter; use rand.New(rand.NewSource(seed))",
						site.what)
				}
			}
		}
	}
	return nil
}

// seedParams returns the objects of integer parameters whose name
// starts with "seed" (seed, seed0, seedBase, ...).
func seedParams(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	seeds := map[types.Object]bool{}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if !strings.HasPrefix(strings.ToLower(name.Name), "seed") {
				continue
			}
			obj := info.ObjectOf(name)
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				seeds[obj] = true
			}
		}
	}
	return seeds
}

// masksOf converts a set of parameter objects into fn's paramMask.
func masksOf(fn *types.Func, objs map[types.Object]bool) paramMask {
	var mask paramMask
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len() && i < 64; i++ {
		if objs[sig.Params().At(i)] {
			mask |= 1 << i
		}
	}
	return mask
}

// computeSeedflowSummary runs one forward taint pass over node's body:
// statements are visited in source order, which over-approximates
// enough for lint purposes. Every parameter starts tainted with its
// own bit; any variable assigned from a tainted expression inherits
// the union of the taints; RNG constructors and in-package calls
// record sites with the parameter set their seed derives from.
func computeSeedflowSummary(info *types.Info, node *FuncNode, get func(*types.Func) seedflowSummary) seedflowSummary {
	sig := node.Obj.Type().(*types.Signature)
	taint := map[types.Object]paramMask{}
	for i := 0; i < sig.Params().Len() && i < 64; i++ {
		taint[sig.Params().At(i)] = 1 << i
	}
	maskOf := func(e ast.Expr) paramMask {
		var m paramMask
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					m |= taint[obj]
				}
			}
			return true
		})
		return m
	}
	maskOfAll := func(exprs []ast.Expr) paramMask {
		var m paramMask
		for _, e := range exprs {
			m |= maskOf(e)
		}
		return m
	}

	// Index the resolved call sites by their CallExpr so the single
	// body walk below can compose callee summaries in source order.
	sites := make(map[*ast.CallExpr]CallSite, len(node.Calls))
	for _, cs := range node.Calls {
		sites[cs.Call] = cs
	}

	rngs := map[[2]token.Pos]rngSite{}
	globals := map[[2]token.Pos]flowSite{}
	addRNG := func(s rngSite) {
		key := [2]token.Pos{s.pos, s.origin}
		if old, ok := rngs[key]; ok {
			s.deps |= old.deps
		}
		rngs[key] = s
	}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var m paramMask
				if len(n.Rhs) == len(n.Lhs) {
					m = maskOf(n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					m = maskOf(n.Rhs[0])
				}
				if m != 0 {
					if obj := info.ObjectOf(id); obj != nil {
						taint[obj] |= m
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var m paramMask
				if len(n.Values) == len(n.Names) {
					m = maskOf(n.Values[i])
				} else if len(n.Values) == 1 {
					m = maskOf(n.Values[0])
				}
				if m != 0 {
					if obj := info.ObjectOf(name); obj != nil {
						taint[obj] |= m
					}
				}
			}
		case *ast.CallExpr:
			path, fname := pkgFunc(info, n)
			if path == "math/rand" || path == "math/rand/v2" {
				switch fname {
				case "NewSource", "NewPCG", "NewChaCha8":
					addRNG(rngSite{
						pos:    n.Pos(),
						origin: n.Pos(),
						what:   path + "." + fname,
						deps:   maskOfAll(n.Args),
					})
				case "New":
					// rand.New(src): the source construction is the
					// checked site.
				default:
					if globalRandBan(fname) {
						key := [2]token.Pos{n.Pos(), n.Pos()}
						globals[key] = flowSite{pos: n.Pos(), origin: n.Pos(), what: path + "." + fname}
					}
				}
				return true
			}
			// In-package callee: map its summary through the argument
			// taints. Callee parameter i's bit translates to the union
			// of taints of our argument i.
			cs, ok := sites[n]
			if !ok || cs.Callee == nil {
				return true
			}
			callee := get(cs.Callee)
			if len(callee.rngs) == 0 && len(callee.globals) == 0 {
				return true
			}
			argMask := func(deps paramMask) paramMask {
				var m paramMask
				for i, arg := range n.Args {
					if i < 64 && deps&(1<<i) != 0 {
						m |= maskOf(arg)
					}
				}
				return m
			}
			for _, s := range callee.rngs {
				addRNG(rngSite{
					pos:    n.Pos(),
					origin: s.origin,
					what:   "call to " + cs.Callee.Name(),
					deps:   argMask(s.deps),
				})
			}
			for _, s := range callee.globals {
				key := [2]token.Pos{n.Pos(), s.origin}
				globals[key] = flowSite{pos: n.Pos(), origin: s.origin, what: "call to " + cs.Callee.Name()}
			}
		}
		return true
	})

	var sum seedflowSummary
	for _, s := range rngs {
		sum.rngs = append(sum.rngs, s)
	}
	for _, s := range globals {
		sum.globals = append(sum.globals, s)
	}
	sort.Slice(sum.rngs, func(i, j int) bool {
		a, b := sum.rngs[i], sum.rngs[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.origin < b.origin
	})
	sort.Slice(sum.globals, func(i, j int) bool {
		a, b := sum.globals[i], sum.globals[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.origin < b.origin
	})
	return sum
}
