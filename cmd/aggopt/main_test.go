package main

import (
	"context"
	"strings"
	"testing"

	"aggview"
)

func testEngine(t *testing.T) *aggview.Engine {
	t.Helper()
	eng := aggview.Open(aggview.Config{PoolPages: 16})
	if _, err := eng.ExecScript(context.Background(), `
		create table t (a int primary key, b int);
		insert into t values (1, 10), (2, 20), (3, 20);
		analyze;
	`); err != nil {
		t.Fatal(err)
	}
	return eng
}

// drive runs the REPL over scripted input and returns its output.
func drive(t *testing.T, eng *aggview.Engine, input string) string {
	t.Helper()
	var out strings.Builder
	repl(eng, strings.NewReader(input), &out)
	return out.String()
}

func TestReplRunsSQL(t *testing.T) {
	eng := testEngine(t)
	out := drive(t, eng, "select a, b from t\norder by a;\n\\quit\n")
	if !strings.Contains(out, "(3 rows)") || !strings.Contains(out, "1\t10") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestReplErrorsAndContinues(t *testing.T) {
	eng := testEngine(t)
	out := drive(t, eng, "select nosuch from t;\nselect count(*) from t;\n")
	if !strings.Contains(out, "error:") {
		t.Fatalf("no error reported:\n%s", out)
	}
	if !strings.Contains(out, "(1 rows)") {
		t.Fatalf("shell did not continue:\n%s", out)
	}
}

func TestReplCommands(t *testing.T) {
	eng := testEngine(t)
	out := drive(t, eng, "\\help\n\\tables\n\\io\n\\modes select b, count(*) from t group by b\n\\frob\n\\q\n")
	for _, want := range []string{
		"\\quit", "tables: t", "reads=", "--- traditional", "--- full", "GroupBy", "unknown command",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestReplModesUsageAndErrors(t *testing.T) {
	eng := testEngine(t)
	out := drive(t, eng, "\\modes\n\\modes select zz from t\n")
	if !strings.Contains(out, "usage:") || !strings.Contains(out, "error:") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestReplDDLPath(t *testing.T) {
	eng := testEngine(t)
	out := drive(t, eng, "create view vb (b, n) as select b, count(*) from t group by b;\n")
	if !strings.Contains(out, "ok") {
		t.Fatalf("DDL ack missing:\n%s", out)
	}
}

func TestParseModeFlag(t *testing.T) {
	for in, want := range map[string]aggview.OptimizerMode{
		"traditional": aggview.Traditional,
		"trad":        aggview.Traditional,
		"push-down":   aggview.PushDown,
		"pushdown":    aggview.PushDown,
		"full":        aggview.Full,
	} {
		got, err := parseMode(in)
		if err != nil || got != want {
			t.Errorf("parseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseMode("frob"); err == nil {
		t.Errorf("bad mode accepted")
	}
}

func TestReplTablesListsMatViews(t *testing.T) {
	eng := testEngine(t)
	out := drive(t, eng, "create materialized view m as select b, count(*) as n from t group by b;\n"+
		"insert into t values (4, 30);\n\\tables\n")
	if want := "materialized view m: backing table holds 3 rows, 2 at its last load"; !strings.Contains(out, want) {
		t.Fatalf("missing %q in output:\n%s", want, out)
	}
}
