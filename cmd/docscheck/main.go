// Command docscheck is the repository's dependency-free documentation
// linter, run by `make docs-check`. It walks every tracked Markdown file
// and verifies that
//
//   - relative links and images resolve to files or directories that
//     exist (external http(s) URLs and intra-document #anchors are
//     skipped — the check must pass offline);
//   - every `internal/...`, `cmd/...`, and `examples/...` path mentioned
//     in backticked inline code exists, so prose cannot drift from the
//     package layout it describes.
//
// It exits non-zero listing every broken reference.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdLink matches [text](target) and ![alt](target). Titles after the
// target ("... "title")") are cut when the target is split on whitespace.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// codePath matches backticked repo paths like `internal/matview` or
// `examples/matview/main.go` (a bare package dir or a file with an
// extension). Backticked code with spaces, slashes into generics, etc.
// will not match — only clean path-shaped tokens are checked.
var codePath = regexp.MustCompile("`((?:internal|cmd|examples)/[A-Za-z0-9_/.-]+)`")

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var mds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Skip VCS internals; .github/ and .claude/ docs are checked.
			if name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(name), ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}

	broken := 0
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		// ROADMAP.md names future artifacts by design (packages that do
		// not exist yet), and ISSUE.md — the work order of the PR in
		// flight — names the files that PR is to create or delete; only
		// their links are checked, not code paths.
		base := filepath.Base(md)
		checkCode := base != "ROADMAP.md" && base != "ISSUE.md"
		for lineno, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if !checkTarget(filepath.Dir(md), target) {
					fmt.Fprintf(os.Stderr, "%s:%d: broken link %q\n", md, lineno+1, target)
					broken++
				}
			}
			if !checkCode {
				continue
			}
			for _, m := range codePath.FindAllStringSubmatch(line, -1) {
				// Repo paths in prose are rooted at the repository, not at
				// the Markdown file's directory. A `pkg.Symbol` reference
				// resolves through its package directory (the part before
				// the final dot) when the full token is not itself a file.
				p := m[1]
				if _, err := os.Stat(filepath.Join(root, p)); err == nil {
					continue
				}
				if i := strings.LastIndexByte(p, '.'); i > 0 {
					if _, err := os.Stat(filepath.Join(root, p[:i])); err == nil {
						continue
					}
				}
				fmt.Fprintf(os.Stderr, "%s:%d: code reference %q does not exist\n", md, lineno+1, m[1])
				broken++
			}
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken reference(s) across %d Markdown file(s)\n", broken, len(mds))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d Markdown file(s) ok\n", len(mds))
}

// checkTarget reports whether one markdown link target resolves. External
// URLs and pure anchors pass unchecked; relative targets (with any
// #fragment cut) must exist on disk relative to the file's directory.
func checkTarget(dir, target string) bool {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"),
		strings.HasPrefix(target, "#"):
		return true
	}
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	if target == "" {
		return true
	}
	_, err := os.Stat(filepath.Join(dir, target))
	return err == nil
}
