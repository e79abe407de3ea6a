package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modRoot walks up from the working directory to the module root so the
// tests can load real module packages through `go list`.
func modRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

func TestPackagesMissingPattern(t *testing.T) {
	_, err := Packages(modRoot(t), "./internal/no/such/package")
	if err == nil {
		t.Fatal("expected an error for a nonexistent package pattern")
	}
	if !strings.Contains(err.Error(), "go list") {
		t.Errorf("error should surface the go list failure, got: %v", err)
	}
}

// TestStdlibFallback checks that a module package importing only stdlib
// type-checks through the source importer (no export data, no proxy).
func TestStdlibFallback(t *testing.T) {
	pkgs, err := Packages(modRoot(t), "./internal/task")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
		t.Fatal("package not fully type-checked")
	}
}
