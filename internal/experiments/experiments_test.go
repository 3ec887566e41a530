package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggview"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick.golden from the current code")

func TestIDsComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "M1"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	for _, id := range want {
		if _, ok := Title(id); !ok {
			t.Errorf("Title(%q) missing", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", true); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode: each must
// complete, produce rows, and not flag an internal inconsistency. The tables
// together are pinned in testdata/quick.golden, which is what `aggbench
// -quick` prints without its timing lines. Regenerate it only deliberately,
// with -update, in a commit of its own.
func TestAllExperimentsQuick(t *testing.T) {
	var b strings.Builder
	ran := 0
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			ran++
			tbl, err := Run(id, true)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			out := tbl.String()
			if strings.Contains(out, "BUG") {
				t.Fatalf("%s flagged an inconsistency:\n%s", id, out)
			}
			if !strings.Contains(out, tbl.ID+":") {
				t.Fatalf("%s render missing header:\n%s", id, out)
			}
			b.WriteString(out + "\n\n")
		})
	}
	if t.Failed() || ran < len(IDs()) { // a -run filter ran only some tables
		return
	}
	got := b.String()
	path := filepath.Join("testdata", "quick.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/experiments -run TestAllExperimentsQuick -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	table := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			table = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("tables differ from testdata/quick.golden at line %d, in %s\n got: %s\nwant: %s", i+1, table, gl[i], wl[i])
		}
	}
	t.Fatalf("tables' length differs from testdata/quick.golden: %d lines, want %d", len(gl), len(wl))
}

// TestE2SortAggregationOverMergeJoin pins the one workload where sort
// aggregation wins: E2's many-departments row in quick form. Under System-R
// joins the group table of 20 000 departments exceeds the pool, and the
// merge join already delivers its rows ordered on e.dno, so Traditional and
// PushDown both group by sorting with no sort of their own.
func TestE2SortAggregationOverMergeJoin(t *testing.T) {
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 20000, 20000
	e, err := empDeptEngineCfg(aggview.Config{PoolPages: 16, SystemRJoins: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []aggview.OptimizerMode{aggview.Traditional, aggview.PushDown} {
		info, err := e.Explain(context.Background(), e2SQL(spec, 0.9), aggview.WithMode(m))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(info.PlanText, "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "GroupBy[sort] by e.dno") || !strings.HasPrefix(lines[1], "  Join[merge] on e.dno = d.dno") {
			t.Errorf("%v: want GroupBy[sort] directly over Join[merge]:\n%s", m, info.PlanText)
		}
	}
}

// TestE7NeverWorseColumn asserts the guarantee column explicitly.
func TestE7NeverWorseColumn(t *testing.T) {
	tbl, err := Run("E7", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[4] != "no" {
			t.Fatalf("regression flagged: %v", row)
		}
	}
}

// TestE5AllShapesAgree: Figure 4 has exactly four executions, one per W set
// of the view, and they agree on the result bag, not only on its size.
func TestE5AllShapesAgree(t *testing.T) {
	tbl, err := Run("E5", true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b:{}", "b:{d$2}", "b:{d$2,e1}", "b:{e1}"}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d, want the four W sets %v:\n%s", len(tbl.Rows), want, tbl)
	}
	for i, r := range tbl.Rows {
		if r[0] != want[i] {
			t.Errorf("row %d is W=%s, want %s", i, r[0], want[i])
		}
		if r[3] != tbl.Rows[0][3] || r[4] != "YES" {
			t.Errorf("W=%s: rows=%s equal=%s, want %s rows equal to the first shape's", r[0], r[3], r[4], tbl.Rows[0][3])
		}
	}
}

// TestE3E4ShapesAgree: E3 shows both shapes of Figure 1 for a configuration
// where the pull-up is chosen and one where the view as written is, E4 the
// eager and the coalescing placement next to group-by last; every row equal.
func TestE3E4ShapesAgree(t *testing.T) {
	for id, want := range map[string][]string{
		"E3": {"q$1:{}", "q$1:{e1} <- chosen", "q$1:{} <- chosen", "q$1:{e1}"},
		"E4": {"group-by last", "eager <- chosen", "group-by last", "coalescing <- chosen"},
	} {
		tbl, err := Run(id, true)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range tbl.Rows {
			if r[5] != "YES" {
				t.Errorf("%s: %v is not equal to the first shape", id, r)
			}
			got = append(got, strings.TrimSpace(r[1]+" "+r[6]))
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s shapes = %v, want %v\n%s", id, got, want, tbl)
		}
	}
}
