package aggview

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aggview/internal/cost"
	"aggview/internal/lplan"
	"aggview/internal/obs"
)

// OpNode is one operator of an executed plan, annotated with the cost
// model's estimates and, after EXPLAIN ANALYZE, the measured runtime
// metrics. Estimated cost is cumulative (the subtree's page IOs under the
// model); actual page counters are the operator's own (children excluded),
// so summing Actual over the tree reproduces the engine's IO delta exactly.
// Actual wall times are inclusive of children, like conventional EXPLAIN
// ANALYZE output.
type OpNode struct {
	// Label is the operator's one-line description.
	Label string
	// EstRows and EstPages are the cost model's output estimates.
	EstRows, EstPages float64
	// EstCost is the model's cumulative cost for the subtree, in page IOs.
	EstCost float64
	// Actual holds the measured metrics (nil for a plain EXPLAIN).
	Actual *OpMetrics
	// Children are the operator's inputs.
	Children []*OpNode
}

// buildOpTree walks an executed plan, attaching per-node estimates from a
// fresh cost model and actuals from the query's collector. The model is
// deterministic and memoized, so re-deriving estimates at render time gives
// the same numbers the optimizer used to choose the plan.
func (e *Engine) buildOpTree(n lplan.Node, model *cost.Model, col *obs.Collector) *OpNode {
	node := &OpNode{Label: n.Describe()}
	if info, err := model.Info(n); err == nil {
		node.EstRows = info.Rows
		node.EstPages = info.Pages
		node.EstCost = info.Cost
	}
	if col != nil {
		if st := col.Op(n); st != nil {
			c := *st
			node.Actual = &c
		}
	}
	for _, c := range n.Children() {
		node.Children = append(node.Children, e.buildOpTree(c, model, col))
	}
	return node
}

// renderOpTree writes the annotated plan, one operator per line.
func renderOpTree(b *strings.Builder, n *OpNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Label)
	fmt.Fprintf(b, "  (est rows=%.0f cost=%.1f)", n.EstRows, n.EstCost)
	if n.Actual != nil {
		fmt.Fprintf(b, " (actual %s)", n.Actual.String())
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderOpTree(b, c, depth+1)
	}
}

// AnalyzeInfo is the result of an EXPLAIN ANALYZE run: the executed plan
// annotated with estimates and measured metrics, plus the query totals.
type AnalyzeInfo struct {
	// Plan describes the optimization outcome (mode, estimates, search
	// stats, and the search trace).
	Plan *PlanInfo
	// Root is the annotated operator tree.
	Root *OpNode
	// Rows is the number of rows the query produced.
	Rows int64
	// IO is the query's page IO (cold: the buffer pool is dropped first,
	// matching the paper's measurement setting).
	IO IOStats
	// Unattributed is the page IO observed outside any operator frame;
	// zero unless the executor has an accounting hole.
	Unattributed OpMetrics
	// Optimize and Execute are the phase wall times.
	Optimize, Execute time.Duration
}

// String renders the EXPLAIN ANALYZE report.
func (a *AnalyzeInfo) String() string {
	var b strings.Builder
	renderOpTree(&b, a.Root, 0)
	fmt.Fprintf(&b, "mode: %s", a.Plan.Mode)
	if a.Plan.Degraded {
		fmt.Fprintf(&b, " (degraded from %s)", a.Plan.RequestedMode)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "estimated cost: %.1f page IOs; actual: %d reads + %d writes (%d hits)\n",
		a.Plan.EstimatedCost, a.IO.Reads, a.IO.Writes, a.IO.Hits)
	fmt.Fprintf(&b, "rows: %d\n", a.Rows)
	fmt.Fprintf(&b, "optimize: %s  execute: %s\n",
		a.Optimize.Round(time.Microsecond), a.Execute.Round(time.Microsecond))
	fmt.Fprintf(&b, "search: %s\n", a.Plan.Search)
	if a.Plan.CacheStatus != "" {
		fmt.Fprintf(&b, "plan cache: %s\n", a.Plan.CacheStatus)
	}
	if a.Plan.Trace != nil {
		if tr := a.Plan.Trace.String(); tr != "" {
			b.WriteString("search trace:\n")
			for _, line := range strings.Split(strings.TrimRight(tr, "\n"), "\n") {
				b.WriteString("  ")
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// ExplainAnalyze executes a SELECT cold (buffer pool dropped) and returns
// the plan annotated with measured per-operator metrics. It takes the same
// options as Query (WithMode picks the optimizer mode, WithParams binds
// placeholders, WithLimits caps the run); the cold cache is inherent to
// the report and cannot be switched off. The SQL form `EXPLAIN ANALYZE
// <select>` renders the same report as result rows.
func (e *Engine) ExplainAnalyze(ctx context.Context, src string, opts ...QueryOption) (a *AnalyzeInfo, err error) {
	defer recoverToError(&err, src)
	return analyzeRows(e.query(ctx, src, rowsOptions{cold: true, trace: true}, opts))
}

// analyzeRows drains an opened run and assembles the EXPLAIN ANALYZE
// report from its collector, shared by the ad-hoc and prepared entry
// points.
func analyzeRows(rows *Rows, err error) (*AnalyzeInfo, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	rows.Close()

	qr := rows.query
	e := qr.engine
	model := cost.NewModel(e.cfg.PoolPages, 0)
	return &AnalyzeInfo{
		Plan:         qr.planInfo,
		Root:         e.buildOpTree(qr.planInfo.root, model, qr.col),
		Rows:         qr.rowsOut,
		IO:           qr.io,
		Unattributed: qr.col.Unattributed,
		Optimize:     qr.optimizeDur,
		Execute:      qr.executeDur,
	}, nil
}
