package matview

import (
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/binder"
	"aggview/internal/catalog"
	"aggview/internal/core"
	"aggview/internal/exec"
	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/qblock"
	"aggview/internal/schema"
	"aggview/internal/sql"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// env is a small sales/regions database. sales has rows the rollup's filter
// (qty > 0) drops and rows whose amount is NULL.
type env struct {
	store *storage.Store
	cat   *catalog.Catalog
}

func col(name string, k types.Kind) schema.Column {
	return schema.Column{ID: schema.ColID{Name: name}, Type: k}
}

func salesRow(region, product string, day int64, amount float64, qty int64) types.Row {
	return types.Row{types.NewString(region), types.NewString(product), types.NewInt(day),
		types.NewFloat(amount), types.NewInt(qty)}
}

func newEnv(t *testing.T) *env {
	t.Helper()
	st := storage.NewStore(32)
	c := catalog.New(st)
	sales, err := c.CreateTable("sales", []schema.Column{
		col("region", types.KindString), col("product", types.KindString),
		col("day", types.KindInt), col("amount", types.KindFloat), col("qty", types.KindInt),
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 60; i++ {
		row := salesRow("r"+string(rune('0'+i%3)), "p"+string(rune('0'+i%4)), i%7, float64(i%10)+0.5, i%5) // qty 0 every 5th row
		if i%11 == 0 {
			row[3] = types.Null()
		}
		if err := c.Insert(sales, row); err != nil {
			t.Fatal(err)
		}
	}
	regions, err := c.CreateTable("regions", []schema.Column{
		col("region", types.KindString), col("zone", types.KindString),
	}, []string{"region"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range []string{"west", "west", "east"} {
		if err := c.Insert(regions, types.Row{types.NewString("r" + string(rune('0'+i))), types.NewString(z)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateView("region_total", []string{"region", "total"},
		`select region, sum(amount) from sales group by region`); err != nil {
		t.Fatal(err)
	}
	return &env{store: st, cat: c}
}

// bind parses and binds one SELECT against the catalog.
func (e *env) bind(t *testing.T, src string) *qblock.Query {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	bound, err := binder.BindSelect(e.cat, stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return bound.Query
}

// naive plans q over the base tables (traditional mode) and evaluates the
// plan with the reference executor.
func (e *env) naive(t *testing.T, q *qblock.Query) *exec.Result {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Mode = core.ModeTraditional
	plan, err := core.Optimize(q, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	res, err := exec.Naive(e.store, plan.Root, nil)
	if err != nil {
		t.Fatalf("naive: %v\n%s", err, lplan.Format(plan.Root))
	}
	return res
}

// materialize binds a definition and fills its backing table from the
// partial query, as CREATE MATERIALIZED VIEW does.
func (e *env) materialize(t *testing.T, name, src string) (*Def, *catalog.Table) {
	t.Helper()
	def, err := Bind(e.cat, name, src)
	if err != nil {
		t.Fatalf("Bind(%s): %v", name, err)
	}
	backing, err := e.cat.CreateTable(def.Backing, def.BackingSchema(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// naive validates the partial query's plan (exec.Naive refuses an
	// illegal tree) before evaluating it.
	e.appendRows(t, backing, e.naive(t, def.PartialQuery()).Rows)
	return e.rebind(t, name, src)
}

// rebind binds the definition against the catalog's current tables, as the
// engine does for every query: inserts publish new copy-on-write Table
// objects, and Rewrite pairs relations by Table identity.
func (e *env) rebind(t *testing.T, name, src string) (*Def, *catalog.Table) {
	t.Helper()
	def, err := Bind(e.cat, name, src)
	if err != nil {
		t.Fatalf("Bind(%s): %v", name, err)
	}
	backing, ok := e.cat.Table(def.Backing)
	if !ok {
		t.Fatalf("backing table %q missing", def.Backing)
	}
	return def, backing
}

func (e *env) appendRows(t *testing.T, tbl *catalog.Table, rows []types.Row) {
	t.Helper()
	for _, row := range rows {
		if err := e.cat.Insert(tbl, row); err != nil {
			t.Fatal(err)
		}
	}
}

const rollupDef = `select region, product, sum(amount) as total, count(*) as n,
	count(amount) as ca, avg(qty) as aq, min(day) as dmin
	from sales where qty > 0 group by region, product`

func TestBindLayout(t *testing.T) {
	e := newEnv(t)
	def, err := Bind(e.cat, "Rollup", rollupDef)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "rollup" || def.Backing != "rollup$mv" || !def.Incremental() {
		t.Fatalf("name=%q backing=%q incremental=%v", def.Name, def.Backing, def.Incremental())
	}
	var cols []string
	for _, c := range def.BackingSchema() {
		cols = append(cols, c.ID.Name)
	}
	// Grouping columns first, then each aggregate's partials; AVG stores
	// SUM and COUNT.
	want := "region product total$sum n$cnt ca$cnt aq$sum aq$cnt dmin$min"
	if got := strings.Join(cols, " "); got != want {
		t.Fatalf("backing columns = %q, want %q", got, want)
	}
	if got := strings.Join(def.BaseTables, ","); got != "sales" {
		t.Fatalf("BaseTables = %q", got)
	}

	join, err := Bind(e.cat, "by_zone", `select r.zone, sum(s.qty) as sq
		from sales s, regions r where s.region = r.region group by r.zone`)
	if err != nil {
		t.Fatal(err)
	}
	if join.Incremental() || strings.Join(join.BaseTables, ",") != "regions,sales" {
		t.Fatalf("join view: incremental=%v base=%v", join.Incremental(), join.BaseTables)
	}
	if _, err := join.Delta(nil); err == nil {
		t.Fatal("Delta accepted a multi-table definition")
	}
}

func TestBindRejects(t *testing.T) {
	e := newEnv(t)
	for _, tc := range []struct{ name, src, want string }{
		{"not a select", `create table x (a int)`, "not a SELECT"},
		{"parameters", `select region, sum(amount) as s from sales where qty > ? group by region`, "parameter"},
		{"view in FROM", `select v.region, sum(v.total) as s from region_total v group by v.region`, "single query block over base tables"},
		{"order by", `select region, sum(amount) as s from sales group by region order by s`, "ORDER BY/LIMIT"},
		{"limit", `select region, sum(amount) as s from sales group by region limit 2`, "ORDER BY/LIMIT"},
		{"outer join", `select r.zone, count(*) as n from regions r left join sales s on s.region = r.region group by r.zone`, "outer joins"},
		{"no group by", `select sum(amount) as s from sales`, "must GROUP BY"},
		{"no aggregate", `select region from sales group by region`, "must GROUP BY"},
		{"having", `select region, sum(amount) as s from sales group by region having sum(amount) > 1`, "HAVING"},
		{"non-bare output", `select region, sum(amount) + 1 as s from sales group by region`, "bare grouping column or aggregate"},
		{"non-decomposable aggregate", `select region, median(amount) as m from sales group by region`, "not decomposable"},
		{"grouping column not output", `select sum(amount) as s from sales group by region`, "must appear in the output list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Bind(e.cat, "m", tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Bind error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// checkRewrite asserts whether the view answers src and, when it does, that
// both aggregation-method candidates are legal plans returning the rows the
// base tables give.
func checkRewrite(t *testing.T, e *env, def *Def, backing *catalog.Table, src string, accept bool) {
	t.Helper()
	cands, ok := def.Rewrite(backing, e.bind(t, src))
	if ok != accept {
		t.Fatalf("Rewrite ok = %v, want %v", ok, accept)
	}
	if !accept {
		if len(cands) != 0 {
			t.Fatalf("refused rewrite returned %d candidates", len(cands))
		}
		return
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want hash and sort aggregation", len(cands))
	}
	want := e.naive(t, e.bind(t, src))
	methods := map[lplan.AggMethod]bool{}
	for _, c := range cands {
		if c.Name != def.Name {
			t.Fatalf("candidate names view %q, want %q", c.Name, def.Name)
		}
		if err := lplan.Validate(c.Root); err != nil {
			t.Fatalf("illegal candidate: %v\n%s", err, lplan.Format(c.Root))
		}
		methods[c.Root.(*lplan.GroupBy).Method] = true
		got, err := exec.Naive(e.store, c.Root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !exec.BagEqual(got, want) {
			t.Fatalf("view-backed rows differ from base rows\nview: %v\nbase: %v\n%s", got.Rows, want.Rows, lplan.Format(c.Root))
		}
	}
	if !methods[lplan.AggHash] || !methods[lplan.AggSort] {
		t.Fatalf("aggregation methods = %v, want hash and sort", methods)
	}
}

// TestRewriteRules: one accepted and one refused query per containment rule
// (numbered as in Def.Rewrite's comment).
func TestRewriteRules(t *testing.T) {
	e := newEnv(t)
	def, backing := e.materialize(t, "rollup", rollupDef)
	for _, tc := range []struct {
		name, src string
		accept    bool
	}{
		{"1 grouped block", `select region, product, sum(amount) as t from sales where qty > 0 group by region, product`, true},
		{"1 no grouping column", `select sum(amount) as t from sales where qty > 0`, false},
		{"1 view reference", `select v.region, sum(v.total) as t from region_total v group by v.region`, false},
		{"2 same FROM, other alias", `select x.region, count(*) as n from sales x where x.qty > 0 group by x.region`, true},
		{"2 extra relation", `select s.region, count(*) as n from sales s, regions r where s.region = r.region and s.qty > 0 group by s.region`, false},
		{"3 definition predicate, operands flipped", `select region, count(*) as n from sales where 0 < qty group by region`, true},
		{"3 definition predicate missing", `select region, count(*) as n from sales group by region`, false},
		{"3 weaker predicate", `select region, count(*) as n from sales where qty > 1 group by region`, false},
		{"4 residual over a stored group column", `select product, count(*) as n from sales where qty > 0 and region = 'r1' group by product`, true},
		{"4 residual over a column not stored", `select product, count(*) as n from sales where qty > 0 and day < 3 group by product`, false},
		{"5 rollup to a subset", `select product, sum(amount) as t from sales where qty > 0 group by product`, true},
		{"5 grouping column not stored", `select day, sum(amount) as t from sales where qty > 0 group by day`, false},
		{"6 AVG from SUM and COUNT partials", `select region, avg(qty) as a, min(day) as d, count(amount) as ca from sales where qty > 0 group by region`, true},
		{"6 SUM and COUNT from AVG's partials", `select region, sum(qty) as s, count(qty) as c from sales where qty > 0 group by region`, true},
		{"6 HAVING and expressions over aggregates", `select region, sum(amount) / count(*) as mean from sales where qty > 0 group by region having count(*) > 2`, true},
		{"6 partial not stored", `select region, max(day) as d from sales where qty > 0 group by region`, false},
		{"6 argument not stored", `select region, sum(day) as d from sales where qty > 0 group by region`, false},
		{"6 non-decomposable", `select region, median(amount) as m from sales where qty > 0 group by region`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRewrite(t, e, def, backing, tc.src, tc.accept)
		})
	}
}

// TestRewriteSelfJoin: two instances of one table pair up by position in
// FROM, whatever the query calls them.
func TestRewriteSelfJoin(t *testing.T) {
	e := newEnv(t)
	def, backing := e.materialize(t, "pairs", `select a.region, count(*) as n
		from sales a, sales b where a.product = b.product and a.day < b.day group by a.region`)
	checkRewrite(t, e, def, backing, `select x.region, count(*) as n
		from sales x, sales y where x.day < y.day and y.product = x.product group by x.region`, true)
	// The same join read from the other side is a different predicate under
	// the positional pairing: refused, never answered wrongly.
	checkRewrite(t, e, def, backing, `select y.region, count(*) as n
		from sales x, sales y where y.day < x.day and y.product = x.product group by y.region`, false)
}

func TestMatchRels(t *testing.T) {
	e := newEnv(t)
	sales, _ := e.cat.Table("sales")
	regions, _ := e.cat.Table("regions")
	rel := func(alias string, tbl *catalog.Table) *qblock.Rel { return &qblock.Rel{Alias: alias, Table: tbl} }

	got, ok := matchRels(
		[]*qblock.Rel{rel("a", sales), rel("r", regions), rel("b", sales)},
		[]*qblock.Rel{rel("q1", regions), rel("q2", sales), rel("q3", sales)})
	if !ok || got["a"] != "q2" || got["b"] != "q3" || got["r"] != "q1" {
		t.Fatalf("matchRels = %v, %v", got, ok)
	}
	if _, ok := matchRels([]*qblock.Rel{rel("a", sales)}, []*qblock.Rel{rel("x", sales), rel("y", sales)}); ok {
		t.Fatal("matched relation lists of different length")
	}
	if _, ok := matchRels(
		[]*qblock.Rel{rel("a", sales), rel("b", sales)},
		[]*qblock.Rel{rel("x", sales), rel("y", regions)}); ok {
		t.Fatal("matched two sales instances against sales and regions")
	}
}

func TestConjKey(t *testing.T) {
	a, b, one := expr.Col("s", "qty"), expr.Col("s", "day"), expr.IntLit(1)
	same := [][2]expr.Expr{
		{expr.NewCmp(expr.EQ, a, b), expr.NewCmp(expr.EQ, b, a)},
		{expr.NewCmp(expr.NE, a, b), expr.NewCmp(expr.NE, b, a)},
		{expr.NewCmp(expr.GT, a, one), expr.NewCmp(expr.LT, one, a)},
		{expr.NewCmp(expr.GE, a, one), expr.NewCmp(expr.LE, one, a)},
	}
	for _, p := range same {
		if conjKey(p[0]) != conjKey(p[1]) {
			t.Errorf("%s and %s have different keys: %q, %q", p[0], p[1], conjKey(p[0]), conjKey(p[1]))
		}
	}
	differ := [][2]expr.Expr{
		{expr.NewCmp(expr.LT, a, b), expr.NewCmp(expr.LT, b, a)},
		{expr.NewCmp(expr.GT, a, one), expr.NewCmp(expr.GE, a, one)},
		{expr.NewCmp(expr.EQ, a, one), expr.NewCmp(expr.NE, a, one)},
	}
	for _, p := range differ {
		if conjKey(p[0]) == conjKey(p[1]) {
			t.Errorf("%s and %s share key %q", p[0], p[1], conjKey(p[0]))
		}
	}
}

// TestDelta: inserted rows fold into delta partial rows; appending them to
// the backing table keeps every rewrite equal to the base answer.
func TestDelta(t *testing.T) {
	e := newEnv(t)
	// region and amount may be NULL here; qty > 0 is the view's filter.
	const src = `select region, sum(amount) as total, count(*) as n,
		count(amount) as ca from sales where qty > 0 group by region`
	def, backing := e.materialize(t, "m", src)
	sales, _ := e.cat.Table("sales")

	filtered := []types.Row{salesRow("r0", "p0", 1, 9.5, 0), salesRow("r9", "p0", 1, 9.5, -1)}
	delta, err := def.Delta(filtered)
	if err != nil || len(delta) != 0 {
		t.Fatalf("Delta of filtered-out rows = %v, %v; want no rows", delta, err)
	}

	nullRegion := salesRow("", "p1", 2, 4.5, 2)
	nullRegion[0] = types.Null()
	nullBoth := salesRow("", "p2", 3, 0, 3)
	nullBoth[0], nullBoth[3] = types.Null(), types.Null()
	nullAmount := salesRow("r7", "p0", 4, 0, 1)
	nullAmount[3] = types.Null()
	inserted := append(filtered, nullRegion, salesRow("r0", "p3", 5, 1.5, 4), nullBoth, nullAmount)
	delta, err = def.Delta(inserted)
	if err != nil {
		t.Fatal(err)
	}
	// One delta row per group in first-seen order: NULL, r0, r7. Layout:
	// region, total$sum, n$cnt, ca$cnt.
	if len(delta) != 3 {
		t.Fatalf("delta rows = %v, want 3 groups", delta)
	}
	null, r7 := delta[0], delta[2]
	if !null[0].IsNull() || null[1].F != 4.5 || null[2].I != 2 || null[3].I != 1 {
		t.Fatalf("NULL-key group = %v, want (NULL, 4.5, 2, 1)", null)
	}
	if r7[0].S != "r7" || !r7[1].IsNull() || r7[2].I != 1 || r7[3].I != 0 {
		t.Fatalf("all-NULL-input group = %v, want (r7, NULL, 1, 0)", r7)
	}

	e.appendRows(t, sales, inserted)
	e.appendRows(t, backing, delta)
	def, backing = e.rebind(t, "m", src)
	checkRewrite(t, e, def, backing, src, true)
}

// sameRows reports whether two row lists are equal row for row, value for
// value, kinds included (NULL equal to NULL).
func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].K != b[i][j].K || !types.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// mergeStream is a seeded stream of sales rows over a handful of groups:
// NULL regions, NULL amounts, rows the rollup's filter drops. Amounts are
// .5-grained, so float sums are exact in any association order.
func mergeStream(seed, n int64) []types.Row {
	rows := make([]types.Row, n)
	next := rand.New(rand.NewSource(seed)).Int63n
	for i := range rows {
		row := salesRow("r"+string(rune('0'+next(5))), "p"+string(rune('0'+next(3))), next(9), float64(next(40))+0.5, next(4))
		if next(7) == 0 {
			row[0] = types.Null()
		}
		if next(5) == 0 {
			row[3] = types.Null()
		}
		rows[i] = row
	}
	return rows
}

// TestMergeAlgebra: the three identities that make merging the store safe
// at any moment — Merge is idempotent, merging early changes nothing
// (Merge(a ++ b) = Merge(Merge(a) ++ b)), and the merged deltas of two
// inserts are the delta of their concatenation.
func TestMergeAlgebra(t *testing.T) {
	e := newEnv(t)
	def, err := Bind(e.cat, "rollup", rollupDef)
	if err != nil {
		t.Fatal(err)
	}
	must := func(rows []types.Row, err error) []types.Row {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	concat := func(a, b []types.Row) []types.Row { return append(append([]types.Row(nil), a...), b...) }
	for seed := int64(1); seed <= 5; seed++ {
		baseA, baseB := mergeStream(seed, 80), mergeStream(seed+100, 50)
		// Backing rows with several partials per group: one delta per chunk.
		var a, b []types.Row
		for lo := 0; lo < len(baseA); lo += 7 {
			a = append(a, must(def.Delta(baseA[lo:min(lo+7, len(baseA))]))...)
		}
		for lo := 0; lo < len(baseB); lo += 3 {
			b = append(b, must(def.Delta(baseB[lo:min(lo+3, len(baseB))]))...)
		}
		merged := must(def.Merge(a))
		if len(merged) >= len(a) {
			t.Fatalf("seed %d: Merge kept %d of %d rows", seed, len(merged), len(a))
		}
		if again := must(def.Merge(merged)); !sameRows(again, merged) {
			t.Fatalf("seed %d: Merge is not idempotent\nonce:  %v\ntwice: %v", seed, merged, again)
		}
		whole, early := must(def.Merge(concat(a, b))), must(def.Merge(concat(merged, b)))
		if !sameRows(whole, early) {
			t.Fatalf("seed %d: Merge(a ++ b) != Merge(Merge(a) ++ b)\n%v\n%v", seed, whole, early)
		}
		if direct := must(def.Delta(concat(baseA, baseB))); !sameRows(whole, direct) {
			t.Fatalf("seed %d: merged deltas != delta of the concatenation\n%v\n%v", seed, whole, direct)
		}
	}
}

// TestMaintainMergesWhenDoubled drives Maintain with single-row inserts:
// the backing table stays within twice its groups (plus the row just
// appended), every merge leaves fresh statistics, and the view keeps
// answering like the base table.
func TestMaintainMergesWhenDoubled(t *testing.T) {
	e := newEnv(t)
	def, err := Bind(e.cat, "rollup", rollupDef)
	if err != nil {
		t.Fatal(err)
	}
	if err := def.Load(e.cat, e.naive(t, def.PartialQuery()).Rows, false); err != nil {
		t.Fatal(err)
	}
	sales, _ := e.cat.Table("sales")
	var merges, removed int64
	for i, row := range mergeStream(9, 300) {
		if err := e.cat.Insert(sales, row); err != nil {
			t.Fatal(err)
		}
		in, out, err := def.Maintain(e.cat, []types.Row{row})
		if err != nil {
			t.Fatal(err)
		}
		backing, _ := e.cat.Table(def.Backing)
		groups := int64(len(e.naive(t, e.bind(t, rollupDef)).Rows))
		if in > 0 {
			merges++
			removed += in - out
			if out != groups || backing.File.Rows() != groups || backing.Stats.Rows != groups {
				t.Fatalf("insert %d: merge wrote %d rows, table holds %d, stats say %d; want %d groups",
					i, out, backing.File.Rows(), backing.Stats.Rows, groups)
			}
		}
		if live := backing.File.Rows(); live > 2*groups {
			t.Fatalf("insert %d: backing table holds %d rows for %d groups", i, live, groups)
		}
		if i%25 == 0 || in > 0 {
			def, backing := e.rebind(t, "rollup", rollupDef)
			checkRewrite(t, e, def, backing, rollupDef, true)
			checkRewrite(t, e, def, backing, `select region, sum(amount) as total, min(day) as d from sales where qty > 0 group by region`, true)
		}
	}
	if merges < 5 || removed == 0 {
		t.Fatalf("merges = %d removing %d rows; want at least 5 merges", merges, removed)
	}
}
