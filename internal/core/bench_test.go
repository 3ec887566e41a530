package core

import (
	"testing"

	"aggview/internal/qblock"
)

// BenchmarkOptimizeAdhoc times core.Optimize alone on each adhoc-plan
// template shape (the statements of bench/workloads.go, over the 400-lineitem
// warehouse and pool the workload uses) in each optimizer mode. With
// -benchmem it shows ns, bytes and objects per call next to plans/op — the
// candidates costed — so the per-candidate price of the search is one
// division away.
func BenchmarkOptimizeAdhoc(b *testing.B) {
	g := goldenGroups(b)[0]
	for _, c := range g.cases {
		q := bindGolden(b, g.cat, c.sql)
		for _, mode := range []Mode{ModeTraditional, ModePushDown, ModeFull} {
			opts := DefaultOptions()
			opts.Mode, opts.PoolPages = mode, 256
			b.Run(c.name+"/"+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				var stats SearchStats
				for i := 0; i < b.N; i++ {
					plan, err := Optimize(q, opts)
					if err != nil {
						b.Fatal(err)
					}
					stats = plan.Stats
				}
				b.ReportMetric(float64(stats.PlansConsidered), "plans/op")
			})
		}
	}
}

// BenchmarkOptimizeAdhocMix runs adhoc-plan's seven templates in the
// workload's rotation, one statement per iteration, in Full mode over the
// workload's pool, so ns/op, B/op and allocs/op are per statement. Unlike
// the per-template runs above, consecutive searches differ in shape: the
// pooled memo is reused across shapes and the collector sees the mix of
// garbage the workload makes, without going through bench/. plans/op is
// the mean over whole rotations: the statements after the timed ones that
// complete the last rotation are searched untimed and counted, so the
// figure does not move with b.N.
func BenchmarkOptimizeAdhocMix(b *testing.B) {
	g := goldenGroups(b)[0]
	qs := make([]*qblock.Query, len(g.cases))
	for i, c := range g.cases {
		qs[i] = bindGolden(b, g.cat, c.sql)
	}
	opts := DefaultOptions()
	opts.Mode, opts.PoolPages = ModeFull, 256
	b.ReportAllocs()
	b.ResetTimer()
	plans := 0
	search := func(i int) {
		plan, err := Optimize(qs[i%len(qs)], opts)
		if err != nil {
			b.Fatal(err)
		}
		plans += plan.Stats.PlansConsidered
	}
	for i := 0; i < b.N; i++ {
		search(i)
	}
	b.StopTimer()
	whole := (b.N + len(qs) - 1) / len(qs) * len(qs)
	for i := b.N; i < whole; i++ {
		search(i)
	}
	b.ReportMetric(float64(plans)/float64(whole), "plans/op")
}
