package sdem

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite examples/testdata goldens")

// TestExampleOutputs pins every examples/* program's stdout to
// examples/testdata/<name>.golden: the examples are deterministic, so a
// diff means a library change altered what a user of the facade sees.
// Run with -update to rewrite the goldens after a deliberate change.
func TestExampleOutputs(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Fatal("no go binary to run the examples with")
		}
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(goBin, "run", "./examples/"+name)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.String())
			}
			path := filepath.Join("examples", "testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("stdout differs from %s at line %d (run with -update to rewrite):\ngot:  %s\nwant: %s", path, i+1, g[i], w[i])
				}
			}
			t.Fatalf("stdout differs from %s in length: %d vs %d lines (run with -update to rewrite)", path, len(g), len(w))
		})
	}
}
