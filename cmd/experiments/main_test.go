package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdem/internal/experiments"
	"sdem/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite experiments_full.txt")

// TestCommittedEvaluation pins the committed evaluation to the code: a
// fresh `experiments -run all` at the default flags must reproduce
// experiments_full.txt byte for byte, so every number EXPERIMENTS.md
// quotes from it traces to the code that produces it.
func TestCommittedEvaluation(t *testing.T) {
	cfg := experiments.Config{Seeds: defaultSeeds, Tasks: defaultTasks, Cores: defaultCores, Workers: parallel.DefaultWorkers(), Seed: defaultSeed}
	var got bytes.Buffer
	for _, name := range allRuns {
		if err := dispatch(&got, cfg, name, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	path := filepath.Join("..", "..", "experiments_full.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("-run all differs from %s at line %d (run with -update to rewrite):\ngot:  %s\nwant: %s", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("-run all differs from %s in length: %d vs %d lines (run with -update to rewrite)", path, len(g), len(w))
}
