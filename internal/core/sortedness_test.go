package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aggview/internal/cost"
	"aggview/internal/exec"
	"aggview/internal/lplan"
	"aggview/internal/obs"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// oraclePoolPages is the executor's buffer budget in the sortedness oracle:
// small enough that hash joins over the golden catalogs take the Grace path
// and sorts spill runs.
const oraclePoolPages = 4

// TestPlansSortedAsClaimed is the sortedness oracle. The output-order rule
// (lplan.Order) is what the cost model charges by and what the executor
// skips a sort on, so every order it claims must hold of the rows. Every
// subtree of every plan in the golden grid — each winner and each
// alternative the search finalizes — that the rule gives an order is run on
// its own, at batch size 1 and the default, on a pool small enough to
// spill, and its rows must be non-decreasing (types.Compare, NULLs first)
// on that order. For every subtree, ordered or not, the cost model's tree
// walk must claim what the rule does.
func TestPlansSortedAsClaimed(t *testing.T) {
	if raceEnabled {
		t.Skip("about 900 single-goroutine plan runs: the race detector finds nothing in them and takes minutes")
	}
	seen := map[string]bool{}
	var ordered, graceRuns int
	forEachGoldenSearch(t, goldenGroupsOn(t, oraclePoolPages), func(name string, q *qblock.Query, opts Options, store *storage.Store) {
		where := fmt.Sprintf("%s mode=%v nohash=%v pool=%d", name, opts.Mode, opts.NoHashJoin, opts.PoolPages)
		plan, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		alts, _, err := Alternatives(q, opts)
		if err != nil {
			t.Fatalf("%s: Alternatives: %v", where, err)
		}
		roots := []lplan.Node{plan.Root}
		for _, a := range alts {
			roots = append(roots, a.Root)
		}
		model := cost.NewModel(opts.PoolPages, opts.CPUWeight)
		for _, root := range roots {
			walkPlan(root, func(n lplan.Node) {
				order := lplan.Order(n)
				key := lplan.Format(n) + n.Schema().String() + fmt.Sprint(order)
				if seen[key] {
					return
				}
				seen[key] = true
				info, err := model.Info(n)
				if err != nil {
					t.Fatalf("%s: costing %s: %v", where, n.Describe(), err)
				}
				if !slices.Equal(info.Order, order) {
					t.Errorf("%s: the model claims order %v, the rule %v:\n%s", where, info.Order, order, lplan.Format(n))
				}
				if len(order) == 0 {
					return
				}
				ordered++
				for _, bs := range []int{1, exec.DefaultBatchSize} {
					col := new(obs.Collector)
					sess := store.NewSession(func(op storage.IOOp, temp bool) error {
						if op == storage.OpWrite {
							col.RecordIO(obs.IOWrite, temp)
						}
						return nil
					})
					res, err := exec.New(store).WithSession(sess).WithCollector(col).WithBatchSize(bs).Run(n)
					if err != nil {
						t.Fatalf("%s: running %s: %v", where, n.Describe(), err)
					}
					for _, st := range col.Ops() {
						if strings.HasPrefix(st.Label, "Join[hash]") && st.SpillWrites > 0 {
							graceRuns++
						}
					}
					if i := unsortedAt(t, res, order); i > 0 {
						t.Errorf("%s, batch size %d: rows %d and %d are out of the claimed order %v:\n%v\n%v\n%s",
							where, bs, i-1, i, order, res.Rows[i-1], res.Rows[i], lplan.Format(n))
					}
				}
			})
		}
	})
	// Guard against a vacuous pass: the grid must claim orders, and hash
	// joins under the claims must spill.
	if ordered == 0 || graceRuns == 0 {
		t.Fatalf("%d ordered subtrees, %d Grace hash joins: the oracle checked nothing", ordered, graceRuns)
	}
}

// walkPlan calls fn on every node of the tree, parents first.
func walkPlan(n lplan.Node, fn func(lplan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkPlan(c, fn)
	}
}

// unsortedAt returns the index of the first row that sorts before its
// predecessor on the columns of order, or 0 when the rows are in order.
func unsortedAt(t *testing.T, res *exec.Result, order []schema.ColID) int {
	t.Helper()
	pos := make([]int, len(order))
	for i, c := range order {
		j, err := res.Schema.IndexOf(c)
		if err != nil || j < 0 {
			t.Fatalf("claimed order column %s is not in the output %s", c, res.Schema)
		}
		pos[i] = j
	}
	for i := 1; i < len(res.Rows); i++ {
		if types.CompareRows(res.Rows[i-1], res.Rows[i], pos) > 0 {
			return i
		}
	}
	return 0
}
