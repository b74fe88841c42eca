package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural half of the framework: a
// package-level call graph plus a memoized, fixpoint-safe summary
// store. seedflow follows its taint across function boundaries: it
// builds the graph once per pass and computes function summaries on
// demand. Everything outside the current package (other modules'
// packages, the stdlib) and every dynamic call (an interface method, a
// function value the graph cannot bind) stays a conservative unknown,
// which keeps the engine exact on the facts it does track and silent
// on the ones it cannot.

// CallSite is one call expression inside a function body, resolved as
// far as the package-level information allows.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the static callee: a package function or a method (for
	// a call through an interface, the interface method, which has no
	// node and so no summary). Nil when the call goes through an
	// unresolvable function value.
	Callee *types.Func
}

// FuncNode is one declared function (or method) of the package.
type FuncNode struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Calls []CallSite
}

// CallGraph indexes every function declared in one package by its
// types object, with resolved outgoing call edges.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
}

// NodeFor returns the graph node for fn, or nil when fn is not
// declared (with a body) in this package.
func (g *CallGraph) NodeFor(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}

// BuildCallGraph constructs the package-level call graph for the
// pass's files. Two edge shapes beyond plain static calls are
// resolved:
//
//   - method calls with a concrete receiver (the usual case);
//   - calls through a local function-typed variable that is bound
//     exactly once to a method value or function identifier
//     (f := t.handle; ...; f(x)).
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Nodes[obj] = &FuncNode{Obj: obj, Decl: fd}
		}
	}
	for _, node := range g.Nodes {
		bindings := localFuncBindings(pass.TypesInfo, node.Decl)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			site := resolveCall(pass.TypesInfo, call, bindings)
			if site.Callee != nil {
				node.Calls = append(node.Calls, site)
			}
			return true
		})
	}
	return g
}

// resolveCall finds the static callee of one call expression.
func resolveCall(info *types.Info, call *ast.CallExpr, bindings map[types.Object]*types.Func) CallSite {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return CallSite{Call: call, Callee: f}
		}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return CallSite{Call: call, Callee: obj}
		case *types.Var:
			// Call through a function-typed variable: resolvable only
			// when the variable is bound exactly once to a known
			// function (method value or function identifier).
			if target, ok := bindings[obj]; ok {
				return CallSite{Call: call, Callee: target}
			}
		}
	}
	return CallSite{Call: call}
}

// localFuncBindings maps single-assignment function-typed locals to
// the *types.Func they are bound to. A variable assigned more than
// once, or assigned anything unresolvable (a func literal, a call
// result), is dropped — calls through it stay unresolved rather than
// wrong.
func localFuncBindings(info *types.Info, decl *ast.FuncDecl) map[types.Object]*types.Func {
	bindings := map[types.Object]*types.Func{}
	poisoned := map[types.Object]bool{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		var target *types.Func
		switch r := ast.Unparen(rhs).(type) {
		case *ast.SelectorExpr:
			target, _ = info.Uses[r.Sel].(*types.Func)
		case *ast.Ident:
			target, _ = info.Uses[r].(*types.Func)
		}
		if target == nil {
			poisoned[obj] = true
			delete(bindings, obj)
			return
		}
		if prev, ok := bindings[obj]; ok && prev != target {
			poisoned[obj] = true
			delete(bindings, obj)
			return
		}
		if !poisoned[obj] {
			bindings[obj] = target
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return bindings
}

// --- summary store ---

// Summaries memoizes one per-function summary of type T over a call
// graph, computing each on demand. Recursive call cycles are handled
// by seeding every in-flight function with the zero summary and
// iterating the cycle to a fixpoint: the compute callback must be
// monotone (re-running it with richer callee summaries may only add
// facts), which every analyzer summary here satisfies because facts
// are unioned sets over the finite site/parameter space.
type Summaries[T any] struct {
	graph    *CallGraph
	compute  func(node *FuncNode, get func(*types.Func) T) T
	equal    func(a, b T) bool
	done     map[*types.Func]T
	inFlight map[*types.Func]T
}

// NewSummaries returns a summary store over g. compute builds the
// summary for one function, pulling callee summaries through get; get
// returns the zero T for functions outside the package. equal decides
// fixpoint convergence for recursive cycles.
func NewSummaries[T any](g *CallGraph, compute func(node *FuncNode, get func(*types.Func) T) T, equal func(a, b T) bool) *Summaries[T] {
	return &Summaries[T]{
		graph:    g,
		compute:  compute,
		equal:    equal,
		done:     map[*types.Func]T{},
		inFlight: map[*types.Func]T{},
	}
}

// Get returns fn's summary, computing (and memoizing) it as needed.
func (s *Summaries[T]) Get(fn *types.Func) T {
	var zero T
	if fn == nil {
		return zero
	}
	if v, ok := s.done[fn]; ok {
		return v
	}
	node := s.graph.NodeFor(fn)
	if node == nil {
		return zero // outside the package: conservative unknown
	}
	if v, ok := s.inFlight[fn]; ok {
		return v // recursive cycle: current approximation
	}
	s.inFlight[fn] = zero
	// Iterate to a fixpoint: recursion feeds the previous approximation
	// back through get, so each round may only add facts; the finite
	// fact space guarantees termination. The iteration cap is a
	// backstop against a non-monotone compute, not a tuning knob.
	cur := zero
	for range 64 {
		next := s.compute(node, s.Get)
		if s.equal(next, cur) {
			break
		}
		cur = next
		s.inFlight[fn] = cur
	}
	delete(s.inFlight, fn)
	s.done[fn] = cur
	return cur
}
