package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRun pins the driver's command-line contract: exit 0 on success,
// 2 on every usage error (including the flags of the deleted
// BENCH_*.json stack and fault fuzzer, which must not come back
// silently), and the text
// scripts and the verify notes key on.
func TestRun(t *testing.T) {
	var ids strings.Builder
	for i := 1; i <= 21; i++ {
		fmt.Fprintf(&ids, "E%d\n", i)
	}
	type testCase struct {
		name       string
		args       []string
		want       int
		wantStdout string // exact when it ends in "\n", else a substring
		wantStderr string // substring
	}
	cases := []testCase{
		{"list", []string{"-list"}, 0, ids.String(), ""},
		{"unknown experiment", []string{"-exp", "E999"}, 2, "", `unknown experiment "E999" (use -list)`},
		{"metrics-out with exp", []string{"-metrics-out", "m.json", "-exp", "E7"}, 2, "", "incompatible with -exp"},
		{"one quick experiment", []string{"-quick", "-trials", "1", "-exp", "E7"}, 0, "all experiments PASS", ""},
	}
	removed := []string{"-batch-bench", "-batch-out", "-batch-trials", "-kernel-bench", "-kernel-out", "-kernel-profile"}
	for _, f := range []string{"fuzz", "seeds", "regime"} { // the fault fuzzer's -fault-* flags
		removed = append(removed, "-fault-"+f)
	}
	for _, f := range removed {
		cases = append(cases, testCase{"removed " + f, []string{f}, 2, "", "flag provided but not defined: " + f})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(c.args, &stdout, &stderr)
			if got != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					c.args, got, c.want, stdout.String(), stderr.String())
			}
			if strings.HasSuffix(c.wantStdout, "\n") {
				if stdout.String() != c.wantStdout {
					t.Errorf("run(%v) stdout = %q, want %q", c.args, stdout.String(), c.wantStdout)
				}
			} else if !strings.Contains(stdout.String(), c.wantStdout) {
				t.Errorf("run(%v) stdout lacks %q:\n%s", c.args, c.wantStdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.wantStderr) {
				t.Errorf("run(%v) stderr lacks %q:\n%s", c.args, c.wantStderr, stderr.String())
			}
		})
	}
}
