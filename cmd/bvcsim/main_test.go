package main

import (
	"strings"
	"testing"
)

// TestRunKRelaxedAtTheBound drives the k=1 relaxed protocol at the
// paper's n=3f+1 bound (n=10 f=3 d=3, a random liar at process 9)
// through the command line: the honest processes must agree exactly and
// the output must pass the 1-relaxed validity check.
func TestRunKRelaxedAtTheBound(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "k", "-n", "10", "-f", "3", "-d", "3", "-k", "1", "-adversary", "random"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"broadcast: 4 rounds, 360 messages\n", "agreement error (Linf): 0\n", "1-relaxed validity: true\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsUnknownNames requires an unknown -mode, -workload or
// -adversary to come back as an error naming it, not to exit.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "bogus"}, `unknown mode "bogus"`},
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{"-adversary", "bogus"}, `unknown adversary "bogus"`},
		{[]string{"-mode", "scalar", "-d", "3"}, "-mode scalar requires -d 1"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}
