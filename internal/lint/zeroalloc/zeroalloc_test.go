package zeroalloc_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"hydranet/internal/lint"
	"hydranet/internal/lint/linttest"
	"hydranet/internal/lint/load"
	"hydranet/internal/lint/zeroalloc"
)

func TestHotPath(t *testing.T) {
	linttest.Run(t, zeroalloc.Analyzer, filepath.Join(linttest.TestData(t), "src", "hotpath"))
}

func TestSamplerPath(t *testing.T) {
	linttest.Run(t, zeroalloc.Analyzer, filepath.Join(linttest.TestData(t), "src", "sampler"))
}

func TestProfPath(t *testing.T) {
	linttest.Run(t, zeroalloc.Analyzer, filepath.Join(linttest.TestData(t), "src", "profpath"))
}

func TestInvPath(t *testing.T) {
	linttest.Run(t, zeroalloc.Analyzer, filepath.Join(linttest.TestData(t), "src", "invpath"))
}

func TestSharedCalleeRoot(t *testing.T) {
	linttest.Run(t, zeroalloc.Analyzer, filepath.Join(linttest.TestData(t), "src", "tworoots"))
}

// TestRootAttributionStable reruns the analyzer over roots that share a
// callee: the diagnostics, including the root each one names, must be
// identical on every run.
func TestRootAttributionStable(t *testing.T) {
	pkgs, err := load.Packages(filepath.Join(linttest.TestData(t), "src", "tworoots"), ".")
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading tworoots: %d packages, err %v", len(pkgs), err)
	}
	pkg := pkgs[0]
	var first string
	for i := 0; i < 20; i++ {
		var diags []lint.Diagnostic
		pass := lint.NewPass(zeroalloc.Analyzer, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, &diags)
		if err := zeroalloc.Analyzer.Run(pass); err != nil {
			t.Fatal(err)
		}
		lint.SortDiagnostics(diags)
		got := fmt.Sprint(diags)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs:\n%s\nrun 0:\n%s", i, got, first)
		}
	}
}
