package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
)

// benchmarkSpec is BENCHMARK.json, the contract this program is run under.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []gatedMetric `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// durableGated are durable-rw's own end-to-end metrics. BENCHMARK.json's
// end_to_end list holds only metrics every workload reports, so their
// bounds live here; compare gates them like the others.
var durableGated = []gatedMetric{
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "commit_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02},
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the program runs from the repository root or from bench/).
func loadSpec() (*benchmarkSpec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, lastErr
}

// compareMain prints one row per (workload, end-to-end metric) of two
// results files and returns the exit code: 1 if any metric regressed, 2 if
// the files cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	a, err := readResults(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readResults(args[1])
	if err != nil {
		return fail(err)
	}
	if err := comparable(a, b); err != nil {
		return fail(err)
	}
	regressed := false
	fmt.Printf("%-11s %-27s %12s %-23s %12s %-23s %8s %6s  %s\n",
		"workload", "metric", "A", "A windows", "B", "B windows", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, g := range append(append([]gatedMetric(nil), spec.EndToEnd...), durableGated...) {
			ma, inA := lookup(ra, g.Name)
			mb, inB := lookup(rb, g.Name)
			if !inA || !inB {
				continue
			}
			change, spread := pairedChange(ma, mb)
			worse := change // in the bad direction
			if g.Better == "higher" {
				worse = -change
			}
			verdict := "within"
			switch {
			case spread > g.Bound:
				verdict = "unresolved" // the windows disagree among themselves by more than the bound
			case worse > g.Bound:
				verdict, regressed = "regressed", true
			}
			fmt.Printf("%-11s %-27s %12.6g %-23s %12.6g %-23s %+7.1f%% %5.0f%%  %s\n", w.Name, g.Name,
				ma.Value, spreadString(ma), mb.Value, spreadString(mb), 100*change, 100*g.Bound, verdict)
		}
		// error_rate has no tolerance: any increase is a regression.
		ea, eb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted)
		verdict := "within"
		if eb > ea {
			verdict, regressed = "regressed", true
		}
		fmt.Printf("%-11s %-27s %12.6g %-23s %12.6g %-23s %8s %6s  %s\n", w.Name, "error_rate", ea, "", eb, "", "", "0%", verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// comparable refuses pairs that did not measure the same thing the same
// way: a baseline run with investigation arguments, a traced run, or a
// different seed, client count, window or data size.
func comparable(a, b *resultsFile) error {
	ea, eb := a.Env, b.Env
	switch {
	case ea.NonDefault:
		return fmt.Errorf("baseline was run with non-default arguments")
	case ea.Traced || eb.Traced:
		return fmt.Errorf("a traced run holds no end-to-end metrics")
	case ea.Seed != eb.Seed || ea.Clients != eb.Clients || ea.WindowS != eb.WindowS || ea.Windows != eb.Windows:
		return fmt.Errorf("runs differ in seed, clients or window: %+v vs %+v", ea, eb)
	}
	for name, ra := range a.Workloads {
		if rb := b.Workloads[name]; rb != nil && !reflect.DeepEqual(ra.Sizes, rb.Sizes) {
			return fmt.Errorf("%s ran over different sizes: %s vs %s", name, ra.Sizes, rb.Sizes)
		}
	}
	return nil
}

func lookup(r *workloadResult, name string) (metric, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m, true
	}
	m, ok := r.Info[name]
	return m, ok
}

// pairedChange compares B with A window by window: change is the median
// of the per-window ratios B/A minus 1, spread the distance between the
// largest and the smallest ratio. Pairing cancels a drift both runs share
// (durable-rw's reader slows as view deltas pile up during a run). A
// metric with a single reading, such as setup_s, has no spread.
func pairedChange(a, b metric) (change, spread float64) {
	if len(a.Windows) == 0 || len(a.Windows) != len(b.Windows) {
		return b.Value/a.Value - 1, 0
	}
	ratios := make([]float64, len(a.Windows))
	for k := range ratios {
		ratios[k] = b.Windows[k] / a.Windows[k]
	}
	return median(ratios) - 1, slices.Max(ratios) - slices.Min(ratios)
}

func spreadString(m metric) string {
	if m.Max == 0 {
		return ""
	}
	return fmt.Sprintf("[%.5g..%.5g]", m.Min, m.Max)
}
