package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmallSoak drives a fault-free 64-seed soak in-process through
// the command line: it must pass the gate and print its summary.
func TestRunSmallSoak(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-budget", "64", "-shards", "1", "-regime", "none"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "soak: 64 seeds — 64 passed, 0 degraded, 0 failed") {
		t.Errorf("summary line missing:\n%s", stdout.String())
	}
}

// TestRunMutFracZero: -mut-frac 0 spends the whole budget on base seeds.
func TestRunMutFracZero(t *testing.T) {
	summary := filepath.Join(t.TempDir(), "summary.json")
	var stdout, stderr strings.Builder
	args := []string{"-budget", "64", "-shards", "1", "-regime", "none", "-protocols", "acs", "-mut-frac", "0", "-summary", summary}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0\nstderr:\n%s", args, code, stderr.String())
	}
	raw, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"mutation_seeds": 0,`, `"mutation_blocks": 0,`, `"seeds_run": 64,`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("summary lacks %s:\n%s", want, raw)
		}
	}
}

// TestRunRejectsBadOptions requires each bad option to exit 1 with a
// message naming it, before any seed runs.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-budget", "0"}, "seed budget 0 must be positive"},
		{[]string{"-protocols", "bogus"}, `unknown protocol "bogus"`},
		{[]string{"-replay-corpus"}, "-replay-corpus needs -corpus"},
	} {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("run(%v) = %d, stderr %q; want 1 and a message containing %q", c.args, code, stderr.String(), c.want)
		}
	}
	for _, flag := range []string{"-no-such-flag", "-resume"} {
		var stdout, stderr strings.Builder
		if code := run([]string{flag}, &stdout, &stderr); code != 2 {
			t.Errorf("run(%s) = %d, want 2", flag, code)
		}
	}
}
