// Command aggopt is an interactive shell (and script runner) for the
// aggview engine.
//
// Usage:
//
//	aggopt                      # interactive shell on an empty database
//	aggopt -demo                # preload the emp/dept example data
//	aggopt -tpcd                # preload the TPC-D-like example data
//	aggopt -f setup.sql         # run a script, then start the shell
//	aggopt -f q.sql -batch      # run a script and exit
//	aggopt -mode traditional    # pin the optimizer mode
//
// Shell commands beyond SQL:
//
//	\modes <select …>   optimize the query under all three modes
//	\io                 show cumulative page-IO counters
//	\tables             list tables and views
//	\help               this list
//	\quit               exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aggview"
)

func main() {
	demo := flag.Bool("demo", false, "preload emp/dept example data")
	tpcd := flag.Bool("tpcd", false, "preload TPC-D-like example data")
	file := flag.String("f", "", "SQL script to execute first")
	batch := flag.Bool("batch", false, "exit after running -f script")
	pool := flag.Int("pool", 128, "buffer pool pages (4 KiB each)")
	modeFlag := flag.String("mode", "full", "optimizer mode: traditional, push-down, full")
	systemR := flag.Bool("systemr", false, "restrict joins to the System-R repertoire (no hash joins)")
	flag.Parse()

	mode, err := parseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng := aggview.Open(aggview.Config{PoolPages: *pool, Mode: mode, SystemRJoins: *systemR})

	if *demo {
		spec := aggview.DefaultEmpDept()
		if err := eng.LoadEmpDept(spec); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded emp (%d rows) and dept (%d rows)\n", spec.Employees, spec.Departments)
	}
	if *tpcd {
		spec := aggview.DefaultTPCD()
		if err := eng.LoadTPCD(spec); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded TPC-D-like schema (%d lineitems)\n", spec.Lineitems)
	}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		res, err := eng.ExecScript(context.Background(), string(src))
		if err != nil {
			fatal(err)
		}
		if res != nil && len(res.Columns) > 0 {
			fmt.Print(res.String())
		}
		if *batch {
			return
		}
	}

	repl(eng, os.Stdin, os.Stdout)
}

func parseMode(s string) (aggview.OptimizerMode, error) {
	switch strings.ToLower(s) {
	case "traditional", "trad":
		return aggview.Traditional, nil
	case "push-down", "pushdown", "push":
		return aggview.PushDown, nil
	case "full":
		return aggview.Full, nil
	default:
		return aggview.Full, fmt.Errorf("aggopt: unknown mode %q (traditional, push-down, full)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggopt:", err)
	os.Exit(1)
}

// repl drives the interactive shell over the given streams (factored for
// testing).
func repl(eng *aggview.Engine, in io.Reader, out io.Writer) {
	fmt.Fprintln(out, "aggview shell — SQL statements end with ';'. \\help for commands.")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "aggview> "
	for {
		fmt.Fprint(out, prompt)
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !command(eng, trimmed, out) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "      -> "
			continue
		}
		stmt := buf.String()
		buf.Reset()
		prompt = "aggview> "
		res, err := eng.ExecScript(context.Background(), stmt)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		if res != nil && len(res.Columns) > 0 {
			fmt.Fprint(out, res.String())
			fmt.Fprintf(out, "(%d rows)\n", res.Len())
		} else {
			fmt.Fprintln(out, "ok")
		}
	}
}

// command handles shell meta-commands; it returns false to exit.
func command(eng *aggview.Engine, line string, out io.Writer) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "\\quit", "\\q", "\\exit":
		return false
	case "\\help", "\\?":
		fmt.Fprintln(out, `\modes <select …>  optimize under all three modes
\io                show cumulative page-IO counters
\tables            list tables and views
\quit              exit`)
	case "\\io":
		fmt.Fprintln(out, eng.IOStats())
	case "\\tables":
		fmt.Fprintln(out, "tables:", strings.Join(eng.Tables(), ", "))
		if vs := eng.Views(); len(vs) > 0 {
			fmt.Fprintln(out, "views: ", strings.Join(vs, ", "))
		}
		for _, mv := range eng.MatViews() {
			if live, loaded, ok := eng.MatViewRows(mv); ok {
				fmt.Fprintf(out, "materialized view %s: backing table holds %d rows, %d at its last load\n", mv, live, loaded)
			}
		}
	case "\\modes":
		rest = strings.TrimSuffix(strings.TrimSpace(rest), ";")
		if rest == "" {
			fmt.Fprintln(out, "usage: \\modes select …")
			return true
		}
		infos, err := eng.ExplainAll(rest)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return true
		}
		for _, info := range infos {
			fmt.Fprintf(out, "--- %v: estimated cost %.1f page IOs, %s\n%s",
				info.Mode, info.EstimatedCost, info.Search, info.PlanText)
		}
	default:
		fmt.Fprintf(out, "unknown command %q; \\help lists commands\n", cmd)
	}
	return true
}
