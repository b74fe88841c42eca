package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmallSoak drives a fault-free 64-seed soak in-process through
// the command line: it must pass the gate, print its summary, and spend
// the whole budget on base seeds.
func TestRunSmallSoak(t *testing.T) {
	summary := filepath.Join(t.TempDir(), "summary.json")
	var stdout, stderr strings.Builder
	args := []string{"-budget", "64", "-shards", "1", "-regime", "none", "-summary", summary}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "soak: 64 seeds — 64 passed, 0 degraded, 0 failed") {
		t.Errorf("summary line missing:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"seeds_run": 64,`) {
		t.Errorf("summary lacks \"seeds_run\": 64:\n%s", raw)
	}
	for _, gone := range []string{`"mutation_`, `"novel_features"`} {
		if strings.Contains(string(raw), gone) {
			t.Errorf("summary has a %s key:\n%s", gone, raw)
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
		{[]string{"-prune-stale", "-corpus", "corpus"}, "-prune-stale needs -replay-corpus"},
		{[]string{"-shards", "0"}, "-shards 0 must be at least 1"},
		{[]string{"-shards", "-3"}, "-shards -3 must be at least 1"},
		{[]string{"-block", "0"}, "-block 0 must be at least 1"},
	} {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("run(%v) = %d, stderr %q; want 1 and a message containing %q", c.args, code, stderr.String(), c.want)
		}
	}
	for _, flag := range []string{"-no-such-flag", "-resume", "-mut-frac"} {
		var stdout, stderr strings.Builder
		if code := run([]string{flag}, &stdout, &stderr); code != 2 {
			t.Errorf("run(%s) = %d, want 2", flag, code)
		}
	}
}
