// Command bench is the repository benchmark described by BENCHMARK.json:
// five workloads over the public aggview API, end-to-end metrics measured
// in a 2-client closed loop with tracing off, and a separate traced run
// (--trace 1) that attributes each operation's time to the engine's layers.
// See README.md in this directory for the glossary and the measuring rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Defaults of a gated run. A results file produced with any other value is
// stamped non_default and compare refuses it as a baseline.
const (
	defaultSeconds = 20 // BENCHMARK.json run_seconds: four measured windows
	defaultClients = 2  // closed-loop clients; never more than nproc on the target host
	defaultSeed    = 1
	windows        = 4
)

// options are the benchmark's arguments. None of them is an engine knob.
type options struct {
	seed    int64
	seconds float64 // measured time, split into four equal windows
	clients int
	tiny    bool   // smoke-test sizes (bench_test.go only)
	dataDir string // parent of the durable workload's data directories
}

func (o options) nonDefault() bool {
	return o.seconds != defaultSeconds || o.clients != defaultClients || o.tiny
}

// metric is one reported number. An end-to-end metric also carries its
// per-window values (Value is their median) and their minimum and maximum.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// workloadResult is one workload's entry in the results file.
type workloadResult struct {
	Why       string                        `json:"why"`
	Sizes     sizes                         `json:"sizes"`
	Correct   bool                          `json:"correct"`
	Attempted int64                         `json:"attempted"`
	Failed    int64                         `json:"failed"`
	Metrics   map[string]metric             `json:"metrics"`
	Info      map[string]metric             `json:"info,omitempty"`
	Shares    map[string]map[string]float64 `json:"layer_shares,omitempty"`
	spans     []span
}

// environment makes results files from different hosts or arguments
// distinguishable, so they are never silently compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	Windows    int     `json:"windows"`
	Traced     bool    `json:"traced"`
	NonDefault bool    `json:"non_default"`
}

type resultsFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Claim     *string                    `json:"claim"` // this benchmark claims no gain
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		o      options
		name   = flag.String("workload", "", "workload to run (default: all five)")
		traced = flag.Int("trace", 0, "1 = traced run at 1 client printing the per-layer metrics")
		out    = flag.String("out", "", "write the results JSON to this file")
		spans  = flag.String("spans", "", "with --trace 1: write the recorded spans to this file")
	)
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the data and statement generators")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload (four equal windows)")
	flag.IntVar(&o.clients, "clients", defaultClients, "closed-loop clients (investigation only)")
	flag.StringVar(&o.dataDir, "data-dir", filepath.Join(".bench_build", "data"), "parent directory for durable-rw's data directories")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.clients < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--clients n] [--out file] [--spans file]")
		fmt.Fprintln(os.Stderr, "       bench compare A.json B.json")
		os.Exit(2)
	}
	if err := run(o, *name, *traced == 1, *out, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures the selected workloads and prints, per workload, every
// metric by name with its unit and then the one-line JSON summary.
func run(o options, name string, traced bool, out, spansOut string) error {
	selected := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.dataDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.dataDir = dir

	file := resultsFile{Env: newEnvironment(o, traced), Workloads: map[string]*workloadResult{}}
	var allSpans []span
	correct := true
	for _, w := range selected {
		var res *workloadResult
		if traced {
			res, err = w.traceRun(o)
		} else {
			res, err = w.loadRun(o)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.Why = w.why
		file.Workloads[w.name] = res
		allSpans = append(allSpans, res.spans...)
		correct = correct && res.Correct
		printResult(w.name, res, file.Env)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			return err
		}
	}
	if spansOut != "" {
		if err := writeJSON(spansOut, allSpans); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("a correctness check failed (see the output above)")
	}
	return nil
}

func newEnvironment(o options, traced bool) environment {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: o.seed, Clients: o.clients, WindowS: o.seconds / windows, Windows: windows,
		Traced: traced, NonDefault: o.nonDefault(),
	}
	if traced {
		env.Clients = 1
	}
	return env
}

// printResult prints the human-readable rows and then the summary line the
// driver reads: the last line of a single-workload run's standard output.
func printResult(name string, res *workloadResult, env environment) {
	fmt.Printf("# %s  seed=%d clients=%d window=%.3gs x%d %s\n", name, env.Seed, env.Clients, env.WindowS, env.Windows, res.Sizes)
	printMetrics(res.Metrics)
	printMetrics(res.Info)
	for _, kind := range sortedKeys(res.Shares) {
		fmt.Printf("  share of the %s span:", kind)
		for _, layer := range sortedKeys(res.Shares[kind]) {
			fmt.Printf(" %s=%.3f", layer, res.Shares[kind][layer])
		}
		fmt.Println()
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for k, m := range res.Metrics {
		summary.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(summary)
	fmt.Println(string(line))
}

func printMetrics(ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		m := ms[k]
		if m.Min != 0 || m.Max != 0 {
			fmt.Printf("  %-36s %14.6g %-8s [%.6g .. %.6g]\n", k, m.Value, m.Unit, m.Min, m.Max)
		} else {
			fmt.Printf("  %-36s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
