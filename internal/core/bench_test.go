package core

import (
	"testing"
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
				plans := 0
				for i := 0; i < b.N; i++ {
					plan, err := Optimize(q, opts)
					if err != nil {
						b.Fatal(err)
					}
					plans = plan.Stats.PlansConsidered
				}
				b.ReportMetric(float64(plans), "plans/op")
			})
		}
	}
}
