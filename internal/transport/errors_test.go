package transport

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sentinels names every package-level Err* variable of this package.
var sentinels = map[string]error{
	"ErrTransport":     ErrTransport,
	"ErrClosed":        ErrClosed,
	"ErrBadPeer":       ErrBadPeer,
	"ErrFrameTooLarge": ErrFrameTooLarge,
	"ErrBadFrame":      ErrBadFrame,
	"ErrLink":          ErrLink,
	"ErrUnsupported":   ErrUnsupported,
}

// TestTransportErrorsChainRoot holds the message plane's error contract:
// every sentinel the package declares chains the root, so
// errors.Is(err, ErrTransport) classifies any transport failure. A new
// sentinel must join the table above, and one declared with errors.New
// instead of wrapping ErrTransport under %w fails the errors.Is check.
func TestTransportErrorsChainRoot(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if !strings.HasPrefix(id.Name, "Err") {
						continue
					}
					declared++
					v, ok := sentinels[id.Name]
					if !ok {
						t.Errorf("%s: sentinel %s is missing from the sentinels table", fset.Position(id.Pos()), id.Name)
						continue
					}
					if !errors.Is(v, ErrTransport) {
						t.Errorf("%s: errors.Is(%s, ErrTransport) = false; declare it as fmt.Errorf(\"%%w: ...\", ErrTransport)", fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
	if declared != len(sentinels) {
		t.Errorf("found %d Err* declarations, the table has %d", declared, len(sentinels))
	}
}
