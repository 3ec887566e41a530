// Command aggbench regenerates the paper-reproduction experiments
// (DESIGN.md's per-experiment index) and prints their tables.
//
// Usage:
//
//	aggbench                 # run every experiment at full size
//	aggbench -quick          # run every experiment at reduced size
//	aggbench -exp E1,E5      # run selected experiments
//	aggbench -list           # list experiment ids and titles
//
// The tables report estimated cost next to measured page IO. Time (qps,
// latency, per-layer shares) is measured by the repo benchmark instead:
// BENCHMARK.json, `bash bench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aggview/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	list := flag.Bool("list", false, "list experiments and exit")
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mutexProf := flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this file")
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProf != "" {
		// Sample every contention event: the runs are short and the point
		// is to see which latch the workers queue on, not to ship this in
		// production.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-4s %s\n", id, title)
		}
		return
	}

	ids := experiments.IDs()
	if *expFlag != "" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	failed := false
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiments.Run(id, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
