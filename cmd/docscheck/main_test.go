package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: the test binary re-executed
// with DOCSCHECK_MAIN=1 is docscheck.
func TestMain(m *testing.M) {
	if os.Getenv("DOCSCHECK_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAPINames: over a two-package module, a backticked field of a root type
// and of an alias (followed into the package it names) pass, the same types
// with a stale field are each reported, and CHANGES.md is not checked.
func TestAPINames(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"aggview.go": "package aggview\n\nimport \"aggview/internal/govern\"\n\n" +
			"type Config struct{ Mode int }\n\ntype Limits = govern.Limits\n",
		"internal/govern/govern.go": "package govern\n\ntype Limits struct{ MaxRowsOut int64 }\n",
		"README.md":                 "`Config.Mode` and `Limits.MaxRowsOut` exist; `Config.Timeout` and `Limits.Timeout` do not.\n",
		"CHANGES.md":                "`Config.PlanCacheSize` was deleted.\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(os.Args[0], root)
	cmd.Env = append(os.Environ(), "DOCSCHECK_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("stale names passed:\n%s", out)
	}
	for _, want := range []string{`API name "Config.Timeout"`, `API name "Limits.Timeout"`, "2 broken reference(s)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestExperimentTables: a row of an E-section table in EXPERIMENTS.md
// passes when the output section of the same ID holds it, trailing space
// aside, and fails when a cell differs; a section with no output section of
// its ID is not checked.
func TestExperimentTables(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"aggbench_output.txt": "== E1: crossover ==\nmode  io   \n----  ---\ntrad  120  \nfull  90   \n\n" +
			"== E2: placement ==\nmode  io\npush  40\n",
		"EXPERIMENTS.md": "# Experiments\n\n## E1 — crossover\n\n```\nmode  io\ntrad  120\nfull  95\n```\n\n" +
			"## P1 — timing\n\n```\nqps  999\n```\n",
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(os.Args[0], root)
	cmd.Env = append(os.Environ(), "DOCSCHECK_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("a mismatched row passed:\n%s", out)
	}
	for _, want := range []string{`EXPERIMENTS.md:8: row not in aggbench_output.txt: "full  95"`, "1 broken reference(s)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
