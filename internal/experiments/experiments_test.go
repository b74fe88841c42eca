package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment in Quick mode
// and requires the paper's claims to hold. This is the library's
// integration test: protocols, geometry and harness all end-to-end. The
// rendered outcomes, concatenated in registry order (`bvcbench -quick
// -trials 3 -seed 7` without its last line), must match
// testdata/quick.golden byte for byte; regenerate it with
// `go test ./internal/experiments -run AllExperimentsQuick -update-golden`.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	opt := Options{Seed: 7, Trials: 3, Quick: true}
	var all bytes.Buffer
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			o := e.Run(opt)
			if o == nil {
				t.Fatal("nil outcome")
			}
			if o.ID != e.ID {
				t.Errorf("outcome id %q != %q", o.ID, e.ID)
			}
			var buf bytes.Buffer
			o.Render(&buf)
			if !o.Pass {
				t.Errorf("experiment failed:\n%s", buf.String())
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("render missing id")
			}
			all.Write(buf.Bytes())
		})
	}
	path := filepath.Join("testdata", "quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(all.String(), "\n"), strings.Split(string(raw), "\n")
	exp := ""
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := lineAt(got, i), lineAt(want, i)
		if strings.HasPrefix(g, "== ") {
			exp = strings.TrimSuffix(strings.Fields(g)[1], ":")
		}
		if g != w {
			t.Fatalf("%s differs from %s at line %d:\n got: %q\nwant: %q", exp, path, i+1, g, w)
		}
	}
}

// lineAt is lines[i], or "<end of output>" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

func TestRunLookup(t *testing.T) {
	if Run("E999", Options{}) != nil {
		t.Error("unknown id returned an outcome")
	}
	o := Run("E8", Options{Seed: 3, Trials: 2, Quick: true})
	if o == nil || o.ID != "E8" {
		t.Fatalf("Run(E8) = %+v", o)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed != 1 || o.Trials != 5 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{Seed: 9, Trials: 2}.withDefaults()
	if o2.Seed != 9 || o2.Trials != 2 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
}
