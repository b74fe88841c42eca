package relaxedbvc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// exportedAPI lists the exported surface of the package in dir: every
// top-level func, type, const and var, every method of an exported type
// and every exported field of an exported struct — a new front door or
// a new knob shows up as a line.
func exportedAPI(dir string) ([]string, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var api []string
	add := func(kind, name string) {
		api = append(api, kind+" "+name)
	}
	for _, file := range pkgs["relaxedbvc"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add("func", d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					add("method", id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								add(strings.ToLower(d.Tok.String()), name.Name)
							}
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						add("type", s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									if name.IsExported() {
										add("field", s.Name.Name+"."+name.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	return api, nil
}

// TestAPIGolden pins the package's exported surface to testdata/api.txt.
// A deliberate API change edits that file in the same commit; anything
// else is the facade regrowing a door or a knob.
func TestAPIGolden(t *testing.T) {
	got, err := exportedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	set := func(list []string) map[string]bool {
		m := make(map[string]bool, len(list))
		for _, l := range list {
			m[l] = true
		}
		return m
	}
	inWant, inGot := set(want), set(got)
	var diff []string
	for _, l := range got {
		if !inWant[l] {
			diff = append(diff, "+ "+l)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			diff = append(diff, "- "+l)
		}
	}
	if len(diff) > 0 {
		t.Errorf("exported API differs from testdata/api.txt (+ added, - removed):\n%s", strings.Join(diff, "\n"))
	}
	if !sort.StringsAreSorted(want) {
		t.Error("testdata/api.txt is not sorted")
	}
}
