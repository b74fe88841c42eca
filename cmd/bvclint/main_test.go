package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot is the repo root as seen from this package's test
// working directory (cmd/bvclint).
func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

// TestRunExitCodes pins the driver's exit-code contract: 0 clean,
// 1 findings, 2 usage/load/internal error.
func TestRunExitCodes(t *testing.T) {
	root := moduleRoot(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, exitClean},
		{"clean package", []string{"-C", root, "./cmd/bvclint/testdata/clean"}, exitClean},
		{"findings", []string{"-C", root, "./cmd/bvclint/testdata/lintme"}, exitFindings},
		{"findings single analyzer", []string{"-C", root, "-only", "seedflow", "./cmd/bvclint/testdata/lintme"}, exitFindings},
		{"other analyzer stays clean", []string{"-C", root, "-only", "floateq", "./cmd/bvclint/testdata/lintme"}, exitClean},
		{"unknown analyzer", []string{"-only", "nosuchanalyzer"}, exitError},
		{"bad flag", []string{"-no-such-flag"}, exitError},
		{"bad pattern", []string{"-C", root, "./cmd/bvclint/testdata/nosuchdir"}, exitError},
		// //bvclint:allow is the one suppression form: the removed
		// scope-widening and exceptions-file flags are usage errors.
		{"strict flag removed", []string{"-strict", "-list"}, exitError},
		{"exceptions flag removed", []string{"-exceptions", "x", "-list"}, exitError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(c.args, &stdout, &stderr)
			if got != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					c.args, got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestListNamesTheSuite pins the analyzer roster -list prints, in
// order: the determinism and protocol checks, nothing else.
func TestListNamesTheSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != exitClean {
		t.Fatalf("run(-list) = %d, want %d\nstderr: %s", got, exitClean, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "nodeterminism maporder errwrap floateq seedflow quorumgate"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("-list names = %s, want %s", got, want)
	}
}

// TestRunJSON checks the -json output: a JSON array of findings with
// the stable field names CI tooling keys on, and a literal [] when
// clean.
func TestRunJSON(t *testing.T) {
	root := moduleRoot(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-C", root, "-json", "./cmd/bvclint/testdata/lintme"}, &stdout, &stderr); got != exitFindings {
		t.Fatalf("run = %d, want %d\nstderr: %s", got, exitFindings, stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json output empty despite findings exit code")
	}
	d := diags[0]
	if d.Analyzer != "seedflow" || d.Line == 0 || !strings.HasSuffix(d.File, "lintme.go") || d.Message == "" {
		t.Fatalf("unexpected JSON diagnostic: %+v", d)
	}

	stdout.Reset()
	if got := run([]string{"-C", root, "-json", "./cmd/bvclint/testdata/clean"}, &stdout, &stderr); got != exitClean {
		t.Fatalf("clean -json run = %d, want %d", got, exitClean)
	}
	if s := strings.TrimSpace(stdout.String()); s != "[]" {
		t.Fatalf("clean -json output = %q, want []", s)
	}
}

// TestProblemMatcherMatchesOutput keeps the GitHub Actions problem
// matcher in lockstep with the text diagnostic format: the regexp in
// .github/bvclint-problem-matcher.json must match real driver output.
func TestProblemMatcherMatchesOutput(t *testing.T) {
	root := moduleRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, ".github", "bvclint-problem-matcher.json"))
	if err != nil {
		t.Fatalf("problem matcher file: %v", err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Owner   string `json:"owner"`
			Pattern []struct {
				Regexp  string `json:"regexp"`
				File    int    `json:"file"`
				Line    int    `json:"line"`
				Column  int    `json:"column"`
				Message int    `json:"message"`
				Code    int    `json:"code"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatalf("problem matcher JSON: %v", err)
	}
	if len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want exactly one matcher with one pattern, got %+v", matcher)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp: %v", err)
	}

	var stdout, stderr bytes.Buffer
	if got := run([]string{"-C", root, "./cmd/bvclint/testdata/lintme"}, &stdout, &stderr); got != exitFindings {
		t.Fatalf("run = %d, want findings", got)
	}
	line := strings.Split(strings.TrimSpace(stdout.String()), "\n")[0]
	m := re.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("matcher regexp %q does not match driver output %q", pat.Regexp, line)
	}
	if !strings.HasSuffix(m[pat.File], "lintme.go") {
		t.Errorf("file group = %q, want a lintme.go path", m[pat.File])
	}
	if m[pat.Code] != "seedflow" {
		t.Errorf("code group = %q, want the analyzer name seedflow", m[pat.Code])
	}
	if m[pat.Line] == "" || m[pat.Column] == "" || m[pat.Message] == "" {
		t.Errorf("line/column/message groups empty in %v", m)
	}
}
