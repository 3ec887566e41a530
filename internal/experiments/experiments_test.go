package experiments

import (
	"strings"
	"testing"
)

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
// complete, produce rows, and not flag an internal inconsistency.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
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
		})
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

// TestE5AllShapesAgree re-checks that Figure 4's four plans agreed on the
// row count (runE5 errors out otherwise, so reaching here suffices).
func TestE5AllShapesAgree(t *testing.T) {
	tbl, err := Run("E5", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 plan shapes", len(tbl.Rows))
	}
	rows := tbl.Rows[0][3]
	for _, r := range tbl.Rows {
		if r[3] != rows {
			t.Fatalf("row counts differ: %v", tbl.Rows)
		}
	}
}
