package main

import (
	"reflect"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(gs []gatedMetric) []string {
	var out []string
	for _, g := range gs {
		out = append(out, g.Name)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload at tiny size with 200 ms windows, then the
// traced pass twice, and holds the output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, name := range append(names(spec.EndToEnd), names(spec.PerLayer)...) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", name)
		}
	}
	o := options{seed: defaultSeed, seconds: 0.8, clients: defaultClients, tiny: true, dataDir: t.TempDir()}
	for i, sw := range spec.Workloads {
		w := workloads[i]
		if sw.Name != w.name || sw.Why != w.why || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, sw.Name, sw.Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := w.loadRun(o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedKeys(res.Metrics), names(spec.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v with %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
			}

			to := o
			to.seconds = 0.1
			first, err := w.traceRun(to)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedKeys(first.Metrics), names(spec.PerLayer); !slices.Equal(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
			}
			if !first.Correct || first.Failed != 0 {
				t.Errorf("traced pass: correct=%v, %d operations failed", first.Correct, first.Failed)
			}
			checkSpans(t, first.spans)

			second, err := w.traceRun(to)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{
				"core.plans_considered", "core.cost_ratio", "plancache.hit_ratio", "plancache.invalidations_per_commit",
				"matview.rewrite_ratio", "exec.rows_examined_per_row_out", "storage.hit_ratio", "storage.reads_per_op",
				"storage.spill_pages_per_op", "wal.writes_per_commit",
			} {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two traced passes of one seed: %v vs %v", name, a, b)
				}
			}
			if first.Attempted != second.Attempted || !reflect.DeepEqual(first.Sizes, second.Sizes) {
				t.Errorf("two traced passes of one seed differ in operations or sizes")
			}
		})
	}
}

// checkSpans asserts the shape of the kept spans: per operation exactly
// one root, and every other span inside its parent.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced pass kept no spans")
	}
	byOp := map[int][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for op, ss := range byOp {
		roots := 0
		for _, s := range ss {
			if s.End < s.Start {
				t.Errorf("op %d: span %s ends before it starts", op, s.Name)
			}
			if s.Parent < 0 {
				roots++
				continue
			}
			if p := ss[s.Parent]; p.ID != s.Parent || s.Start < p.Start || s.End > p.End {
				t.Errorf("op %d: span %s [%d,%d] is not inside its parent %s [%d,%d]", op, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if roots != 1 {
			t.Errorf("op %d has %d root spans", op, roots)
		}
	}
}
