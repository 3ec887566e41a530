package catalog_test

import (
	"bytes"
	"math"
	"testing"

	"aggview/internal/catalog"
	"aggview/internal/datagen"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// analyzeRows is Analyze's statistics as the row-at-a-time loop computed
// them before Analyze read the pages' vectors: every non-NULL value's
// types.AppendKey encoding into a set per column, and the running min and
// max under types.Compare.
func analyzeRows(t *testing.T, store *storage.Store, tbl *catalog.Table) catalog.TableStats {
	t.Helper()
	stats := catalog.TableStats{Cols: map[string]catalog.ColStats{}}
	distinct := make([]map[string]struct{}, len(tbl.Schema))
	mins := make([]types.Value, len(tbl.Schema))
	maxs := make([]types.Value, len(tbl.Schema))
	for i := range distinct {
		distinct[i] = map[string]struct{}{}
	}
	var buf []byte
	for sc := store.NewScanner(tbl.File); ; {
		page, _, ok, err := sc.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, row := range page.AppendRows(nil) {
			stats.Rows++
			for i, v := range row {
				if v.IsNull() {
					continue
				}
				buf = types.AppendKey(buf[:0], v)
				distinct[i][string(buf)] = struct{}{}
				if mins[i].IsNull() || types.Compare(v, mins[i]) < 0 {
					mins[i] = v
				}
				if maxs[i].IsNull() || types.Compare(v, maxs[i]) > 0 {
					maxs[i] = v
				}
			}
		}
	}
	for i, col := range tbl.Schema {
		stats.Cols[col.ID.Name] = catalog.ColStats{NDV: int64(len(distinct[i])), Min: mins[i], Max: maxs[i]}
	}
	stats.Pages = tbl.File.Pages()
	return stats
}

// loadMixed creates a table whose columns the typed loads never produce:
// INTs beside the FLOATs of equal value, ±0 and NaNs, INTs around ±2^53,
// where float64 stops telling neighbours apart, BOOLEAN payloads beyond 1,
// VARCHARs and NULLs, appended past the catalog's type checks so that one
// page's vector holds one kind and another's mixes them.
func loadMixed(c *catalog.Catalog) error {
	tbl, err := c.CreateTable("mixed", []schema.Column{
		{ID: schema.ColID{Name: "a"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "b"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "c"}, Type: types.KindInt},
	}, nil, nil)
	if err != nil {
		return err
	}
	negZero := math.Copysign(0, -1)
	vals := []types.Value{
		types.NewInt(2), types.NewFloat(2), types.NewFloat(negZero), types.NewInt(0), types.NewFloat(0),
		types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0xfff8000000000001)),
		types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53), types.NewInt(-(1 << 53) - 1),
		types.NewBool(true), types.NewBool(false), {K: types.KindBool, I: 2}, types.NewString("x"), types.NewString(""),
		types.Null(),
	}
	for i := 0; i < 3000; i++ {
		row := types.Row{types.NewInt(int64(i % 700)), vals[i%len(vals)], types.Null()}
		if i >= 1500 { // the later pages: INTs only in b, a FLOAT in a now and then
			row[1] = types.NewInt(int64(i%5 - 2))
			if i%97 == 0 {
				row[0] = types.NewFloat(float64(i % 700))
			}
		}
		if err := c.Store().Append(tbl.File, row); err != nil {
			return err
		}
	}
	return nil
}

// sameValue reports whether a and b are the same value: kind and bits.
func sameValue(a, b types.Value) bool {
	return bytes.Equal(types.EncodeValue(nil, a), types.EncodeValue(nil, b))
}

// TestAnalyzeAgainstRowLoop holds Analyze, which counts distinct INTs and
// BOOLEANs without encoding them and folds a page's INT min and max at
// once, to the row loop it replaced, over every table datagen loads:
// the TPC-D warehouse, and emp/dept with and without NULL-heavy columns
// and with VARCHAR payloads. Rows, pages, NDV, min and max must all agree.
func TestAnalyzeAgainstRowLoop(t *testing.T) {
	type load struct {
		name string
		fn   func(*catalog.Catalog) error
	}
	empDept := func(null float64, payload int) func(*catalog.Catalog) error {
		return func(c *catalog.Catalog) error {
			spec := datagen.DefaultEmpDept()
			spec.Employees, spec.NullFraction, spec.PayloadCols = 3000, null, payload
			return datagen.LoadEmpDept(c, spec)
		}
	}
	loads := []load{
		{"tpcd", func(c *catalog.Catalog) error {
			return datagen.LoadTPCD(c, datagen.TPCDSpec{Seed: 3, Lineitems: 5000})
		}},
		{"empdept", empDept(0, 0)},
		{"empdept-nulls", empDept(0.4, 0)},
		{"empdept-all-nulls", empDept(1, 0)},
		{"empdept-payload", empDept(0.1, 2)},
		{"mixed", loadMixed},
	}
	for _, l := range loads {
		store := storage.NewStore(64)
		cat := catalog.New(store)
		if err := l.fn(cat); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if len(cat.TableNames()) == 0 {
			t.Fatalf("%s: no tables", l.name)
		}
		for _, name := range cat.TableNames() {
			tbl, _ := cat.Table(name)
			if err := cat.Analyze(tbl); err != nil {
				t.Fatalf("%s.%s: %v", l.name, name, err)
			}
			tbl, _ = cat.Table(name)
			got, want := tbl.Stats, analyzeRows(t, store, tbl)
			if got.Rows != want.Rows || got.Pages != want.Pages {
				t.Errorf("%s.%s: %d rows in %d pages, row loop %d in %d", l.name, name, got.Rows, got.Pages, want.Rows, want.Pages)
			}
			for col, w := range want.Cols {
				g := got.Cols[col]
				if g.NDV != w.NDV || !sameValue(g.Min, w.Min) || !sameValue(g.Max, w.Max) {
					t.Errorf("%s.%s.%s: NDV %d min %v max %v, row loop NDV %d min %v max %v",
						l.name, name, col, g.NDV, g.Min, g.Max, w.NDV, w.Min, w.Max)
				}
			}
		}
	}
}

// BenchmarkAnalyze runs Analyze over every table of a TPC-D load of 24 000
// lineitems, the warm-exec workload's size, held entirely by the pool: one
// op is one ANALYZE of the whole warehouse.
func BenchmarkAnalyze(b *testing.B) {
	store := storage.NewStore(4096)
	cat := catalog.New(store)
	if err := datagen.LoadTPCD(cat, datagen.TPCDSpec{Seed: 7, Lineitems: 24000}); err != nil {
		b.Fatal(err)
	}
	var tables []*catalog.Table
	for _, name := range cat.TableNames() {
		tbl, _ := cat.Table(name)
		tables = append(tables, tbl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tbl := range tables {
			if err := cat.Analyze(tbl); err != nil {
				b.Fatal(err)
			}
		}
	}
}
