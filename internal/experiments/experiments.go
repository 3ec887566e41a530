// Package experiments regenerates the paper's figures, examples and
// claims as numbered experiments (see DESIGN.md's per-experiment index).
// The EDBT paper's figures are plan diagrams and its quantitative claims
// are qualitative; each experiment therefore reports the *shape* the paper
// argues for — who wins, by what factor, where the crossover falls — as
// estimated plan cost and measured page IO side by side.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point. quick shrinks data sizes for use
// inside unit tests and smoke benches.
type Runner func(quick bool) (*Table, error)

// registry maps experiment ids to runners.
var registry = map[string]struct {
	title string
	run   Runner
}{}

func register(id, title string, run Runner) {
	registry[id] = struct {
		title string
		run   Runner
	}{title: title, run: run}
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// Letter, then numeric suffix: E1, E2, … E10, E11, E12, M1.
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Title returns an experiment's one-line description.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run executes one experiment.
func Run(id string, quick bool) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return e.run(quick)
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// ratio renders a/b as "x.xx×" guarding division by zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
