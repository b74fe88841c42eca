package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// typeCheckSrc builds a Pass from one in-memory source file, the same
// shape the loader produces, so the call-graph tests need no fixture
// directory or `go list` round-trip.
func typeCheckSrc(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{}
	pkg, err := conf.Check("cgtest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Pass{
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
		Src:       map[string][]byte{"a.go": []byte(src)},
	}
}

func nodeByName(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	for fn, node := range g.Nodes {
		if fn.Name() == name {
			return node
		}
	}
	t.Fatalf("no node %q in call graph", name)
	return nil
}

func calleeNames(node *FuncNode) []string {
	var out []string
	for _, cs := range node.Calls {
		out = append(out, cs.Callee.Name())
	}
	sort.Strings(out)
	return out
}

func TestCallGraphStaticCalls(t *testing.T) {
	pass := typeCheckSrc(t, `package cgtest
func a() { b(); c() }
func b() { c() }
func c() {}
`)
	g := BuildCallGraph(pass)
	if got := calleeNames(nodeByName(t, g, "a")); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("a's callees = %v, want [b c]", got)
	}
}

// A function value bound exactly once to a method value resolves to
// the concrete method; rebinding poisons the variable and the call
// stays (correctly) unresolved.
func TestCallGraphMethodValues(t *testing.T) {
	pass := typeCheckSrc(t, `package cgtest
type T struct{}
func (t *T) handle() {}
func (t *T) other() {}
func bound(t *T) {
	h := t.handle
	h()
}
func rebound(t *T) {
	h := t.handle
	h = t.other
	h()
}
`)
	g := BuildCallGraph(pass)
	if got := calleeNames(nodeByName(t, g, "bound")); len(got) != 1 || got[0] != "handle" {
		t.Fatalf("bound's callees = %v, want [handle]", got)
	}
	// rebound's h has two distinct bindings: the call through it must
	// not be attributed to either target.
	if got := nodeByName(t, g, "rebound").Calls; len(got) != 0 {
		t.Fatalf("rebound's resolved callees = %d, want 0 (poisoned binding)", len(got))
	}
}

// A call through an interface resolves to the interface method, which
// has no node even when an in-package type implements it: its summary
// is the zero value, so seedflow treats the call as an unknown rather
// than guessing at a concrete target.
func TestCallGraphInterfaceCallIsUnknown(t *testing.T) {
	pass := typeCheckSrc(t, `package cgtest
type Transport interface {
	Send(to int)
}
type simT struct{}
func (simT) Send(to int) {}
func drive(tr Transport) {
	tr.Send(1)
}
`)
	g := BuildCallGraph(pass)
	calls := nodeByName(t, g, "drive").Calls
	if len(calls) != 1 || calls[0].Callee.Name() != "Send" {
		t.Fatalf("drive's calls = %v, want the one interface call", calls)
	}
	if g.NodeFor(calls[0].Callee) != nil {
		t.Fatal("interface method has a call-graph node; dynamic calls must stay unknown")
	}
	reach := NewSummaries(g,
		func(node *FuncNode, get func(*types.Func) int) int { return 1 },
		func(a, b int) bool { return a == b })
	if got := reach.Get(calls[0].Callee); got != 0 {
		t.Fatalf("interface method summary = %d, want the zero value", got)
	}
}

// Summaries over mutually recursive functions must reach a fixpoint,
// not recurse forever; the summary here is the set of reachable
// in-package functions.
func TestSummariesRecursionFixpoint(t *testing.T) {
	pass := typeCheckSrc(t, `package cgtest
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}
func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}
`)
	g := BuildCallGraph(pass)
	reach := NewSummaries(g,
		func(node *FuncNode, get func(*types.Func) map[string]bool) map[string]bool {
			out := map[string]bool{}
			for _, cs := range node.Calls {
				if cs.Callee == nil {
					continue
				}
				out[cs.Callee.Name()] = true
				for k := range get(cs.Callee) {
					out[k] = true
				}
			}
			return out
		},
		func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		})
	even := nodeByName(t, g, "even").Obj
	got := reach.Get(even)
	if !got["odd"] || !got["even"] {
		t.Fatalf("even's reachable set = %v, want both even and odd (mutual recursion)", got)
	}
	fib := nodeByName(t, g, "fib").Obj
	if got := reach.Get(fib); !got["fib"] || len(got) != 1 {
		t.Fatalf("fib's reachable set = %v, want exactly {fib}", got)
	}
	// Memoized second read must agree.
	if again := reach.Get(even); len(again) != len(got) {
		t.Fatalf("memoized summary differs: %v vs %v", again, got)
	}
}
