package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkSrc type-checks one import-free source file and runs it through
// CheckPackage (analyzers may be nil: the directive pipeline runs
// regardless, which is exactly what these tests target).
func checkSrc(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	path := filepath.Join(t.TempDir(), "a.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := TypeCheck(fset, "p", []string{path}, exportImporter(fset, nil))
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	diags, err := CheckPackage(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestDirectiveMissingJustification(t *testing.T) {
	diags := checkSrc(t, `package p

//bvclint:allow nodeterminism
var x = 1
`, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "missing a justification") {
		t.Fatalf("want one missing-justification diagnostic, got %v", diags)
	}
	if diags[0].Analyzer != "bvclint" {
		t.Fatalf("directive diagnostics must come from the bvclint pseudo-analyzer, got %q", diags[0].Analyzer)
	}
}

func TestDirectiveEmptyJustification(t *testing.T) {
	diags := checkSrc(t, `package p

//bvclint:allow nodeterminism --
var x = 1
`, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "missing a justification") {
		t.Fatalf("want one missing-justification diagnostic, got %v", diags)
	}
}

func TestDirectiveMalformed(t *testing.T) {
	diags := checkSrc(t, `package p

//bvclint:allow two names -- reason
var x = 1
`, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed directive") {
		t.Fatalf("want one malformed-directive diagnostic, got %v", diags)
	}
}

func TestDirectiveUnknownAnalyzer(t *testing.T) {
	diags := checkSrc(t, `package p

//bvclint:allow nosuch -- reason
var x = 1
`, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `unknown analyzer "nosuch"`) {
		t.Fatalf("want one unknown-analyzer diagnostic, got %v", diags)
	}
}

func TestNonDirectiveCommentIgnored(t *testing.T) {
	diags := checkSrc(t, `package p

//bvclint:allowance is a different word entirely
// bvclint:allow with a leading space is not a directive either
var x = 1
`, nil)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

// Staleness contract: a directive is stale exactly when its analyzer
// RAN over the package and it suppressed nothing. The same source is
// checked three ways to pin each side of the condition.
func TestDirectiveStaleness(t *testing.T) {
	const quiet = `package p

func cmp(a, b int) bool {
	//bvclint:allow floateq -- ints: floateq has nothing to say here
	return a == b
}
`
	const active = `package p

func cmp(a, b float64) bool {
	//bvclint:allow floateq -- fixture: exact compare wanted
	return a == b
}
`
	// Analyzer ran, suppressed nothing: stale.
	diags := checkSrc(t, quiet, []*Analyzer{FloatEq})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "stale directive: floateq") {
		t.Fatalf("want one stale-directive diagnostic, got %v", diags)
	}
	if diags[0].Analyzer != "bvclint" {
		t.Fatalf("staleness must come from the bvclint pseudo-analyzer, got %q", diags[0].Analyzer)
	}
	// Analyzer did not run: the directive is someone else's business.
	if diags := checkSrc(t, quiet, nil); len(diags) != 0 {
		t.Fatalf("directive must not be stale when its analyzer is skipped, got %v", diags)
	}
	// Analyzer ran and the directive suppressed a finding: not stale,
	// and the finding stays suppressed.
	if diags := checkSrc(t, active, []*Analyzer{FloatEq}); len(diags) != 0 {
		t.Fatalf("used directive reported, got %v", diags)
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{NoDeterminism, "relaxedbvc/internal/consensus", true},
		{NoDeterminism, "relaxedbvc/internal/geom", false},
		{NoDeterminism, "relaxedbvc/internal/experiments", false},
		{FloatEq, "relaxedbvc/internal/geom", true},
		{FloatEq, "relaxedbvc/internal/consensus", false},
		{SeedFlow, "relaxedbvc/internal/workload", true},
		{ErrWrap, "relaxedbvc/internal/transport", true},
		{ErrWrap, "relaxedbvc", true},
		{ErrWrap, "relaxedbvc/internal/viz", false},
	}
	for _, c := range cases {
		if got := InScope(c.a, c.path); got != c.want {
			t.Errorf("InScope(%s, %s) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}
