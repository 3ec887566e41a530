package catalog

import (
	"testing"

	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

func newTestCatalog(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New(storage.NewStore(64))
	tbl, err := c.CreateTable("Emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
	}, []string{"eno"}, []schema.ForeignKey{
		{Cols: []string{"dno"}, RefTable: "dept", RefCols: []string{"dno"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

// loadEmp inserts n rows and analyzes, returning the current emp table:
// under copy-on-write snapshots, mutations publish fresh Table objects, so
// pointers from before a mutation describe the older version.
func loadEmp(t *testing.T, c *Catalog, tbl *Table, n int) *Table {
	t.Helper()
	for i := 0; i < n; i++ {
		err := c.Insert(tbl, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 10)),
			types.NewFloat(1000 + float64(i%50)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Analyze(tbl); err != nil {
		t.Fatal(err)
	}
	cur, ok := c.Table(tbl.Name)
	if !ok {
		t.Fatalf("table %q vanished", tbl.Name)
	}
	return cur
}

func TestCreateTableNormalizesNames(t *testing.T) {
	_, tbl := newTestCatalog(t)
	if tbl.Name != "emp" {
		t.Fatalf("Name = %q", tbl.Name)
	}
	for _, col := range tbl.Schema {
		if col.ID.Rel != "emp" {
			t.Fatalf("column %v not qualified", col.ID)
		}
	}
}

func TestCreateTableRejectsDuplicates(t *testing.T) {
	c, _ := newTestCatalog(t)
	if _, err := c.CreateTable("emp", []schema.Column{{ID: schema.ColID{Name: "x"}, Type: types.KindInt}}, nil, nil); err == nil {
		t.Fatalf("duplicate table accepted")
	}
	if _, err := c.CreateTable("t2", []schema.Column{
		{ID: schema.ColID{Name: "a"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "A"}, Type: types.KindInt},
	}, nil, nil); err == nil {
		t.Fatalf("duplicate column accepted")
	}
	if _, err := c.CreateTable("t3", nil, nil, nil); err == nil {
		t.Fatalf("empty table accepted")
	}
	if _, err := c.CreateTable("t4", []schema.Column{{ID: schema.ColID{Name: "a"}, Type: types.KindInt}}, []string{"nope"}, nil); err == nil {
		t.Fatalf("bad key column accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	c, tbl := newTestCatalog(t)
	if err := c.Insert(tbl, types.Row{types.NewInt(1)}); err == nil {
		t.Fatalf("short row accepted")
	}
	if err := c.Insert(tbl, types.Row{types.NewInt(1), types.NewInt(2), types.NewString("x")}); err == nil {
		t.Fatalf("wrong kind accepted")
	}
	// NULLs are legal in any column: outer joins and nullable data both
	// produce them, and the storage codec round-trips them.
	if err := c.Insert(tbl, types.Row{types.NewInt(1), types.Null(), types.NewFloat(1)}); err != nil {
		t.Fatalf("NULL rejected: %v", err)
	}
	// Int into float column is coerced.
	if err := c.Insert(tbl, types.Row{types.NewInt(1), types.NewInt(2), types.NewInt(900)}); err != nil {
		t.Fatalf("int→float coercion failed: %v", err)
	}
}

func TestAnalyzeStats(t *testing.T) {
	c, tbl := newTestCatalog(t)
	tbl = loadEmp(t, c, tbl, 100)
	if tbl.Stats.Rows != 100 {
		t.Fatalf("Rows = %d", tbl.Stats.Rows)
	}
	if tbl.Stats.Pages <= 0 {
		t.Fatalf("Pages = %d", tbl.Stats.Pages)
	}
	cs, ok := tbl.ColStat("dno")
	if !ok || cs.NDV != 10 {
		t.Fatalf("dno NDV = %+v", cs)
	}
	if cs.Min.Int() != 0 || cs.Max.Int() != 9 {
		t.Fatalf("dno range = %v..%v", cs.Min, cs.Max)
	}
	cs, _ = tbl.ColStat("eno")
	if cs.NDV != 100 {
		t.Fatalf("eno NDV = %d", cs.NDV)
	}
	cs, _ = tbl.ColStat("sal")
	if cs.NDV != 50 {
		t.Fatalf("sal NDV = %d", cs.NDV)
	}
}

func TestKeyQualification(t *testing.T) {
	_, tbl := newTestCatalog(t)
	k, ok := tbl.Key("e1")
	if !ok || len(k) != 1 || k[0].Rel != "e1" || k[0].Name != "eno" {
		t.Fatalf("Key = %v %v", k, ok)
	}
	noKey := &Table{Name: "x"}
	if _, ok := noKey.Key("x"); ok {
		t.Fatalf("keyless table reported a key")
	}
}

func TestViews(t *testing.T) {
	c, _ := newTestCatalog(t)
	if _, err := c.CreateView("V1", []string{"dno", "Asal"}, "select dno, avg(sal) from emp group by dno"); err != nil {
		t.Fatal(err)
	}
	v, ok := c.View("v1")
	if !ok || v.Cols[1] != "asal" {
		t.Fatalf("View = %+v %v", v, ok)
	}
	if _, err := c.CreateView("emp", nil, "select 1"); err == nil {
		t.Fatalf("view over existing table name accepted")
	}
	if _, err := c.CreateView("v1", nil, "select 1"); err == nil {
		t.Fatalf("duplicate view accepted")
	}
	if _, err := c.CreateTable("v1", []schema.Column{{ID: schema.ColID{Name: "a"}, Type: types.KindInt}}, nil, nil); err == nil {
		t.Fatalf("table over existing view name accepted")
	}
}

func TestDropTable(t *testing.T) {
	c, tbl := newTestCatalog(t)
	loadEmp(t, c, tbl, 10)
	if err := c.DropTable("EMP"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("emp"); ok {
		t.Fatalf("table still present")
	}
	if err := c.DropTable("emp"); err == nil {
		t.Fatalf("double drop accepted")
	}
}

func TestNames(t *testing.T) {
	c, _ := newTestCatalog(t)
	if _, err := c.CreateTable("aaa", []schema.Column{{ID: schema.ColID{Name: "x"}, Type: types.KindInt}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	names := c.TableNames()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "emp" {
		t.Fatalf("TableNames = %v", names)
	}
	if _, err := c.CreateView("zz", nil, "select 1"); err != nil {
		t.Fatal(err)
	}
	if vn := c.ViewNames(); len(vn) != 1 || vn[0] != "zz" {
		t.Fatalf("ViewNames = %v", vn)
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	c, tbl := newTestCatalog(t)
	if err := c.Analyze(tbl); err != nil {
		t.Fatal(err)
	}
	tbl, _ = c.Table("emp") // Analyze published a new table version
	if tbl.Stats.Rows != 0 {
		t.Fatalf("Rows = %d", tbl.Stats.Rows)
	}
	cs, ok := tbl.ColStat("eno")
	if !ok || cs.NDV != 0 || !cs.Min.IsNull() {
		t.Fatalf("empty col stats = %+v %v", cs, ok)
	}
}

// TestDiscardEvictsDroppedTable: a batch that wrote to a table, read the
// pages it flushed and then dropped the table leaves none of those pages
// resident when it is discarded — the next batch flushes different rows at
// the same page numbers, and their first read must count as a miss.
func TestDiscardEvictsDroppedTable(t *testing.T) {
	c, tbl := newTestCatalog(t)
	tbl = loadEmp(t, c, tbl, 10)
	flushed := tbl.File.Pages()
	grow := func(from int) {
		t.Helper()
		for i := from; ; i++ {
			cur, _ := c.Table("emp")
			if cur.File.Pages() > flushed+1 { // page `flushed` is full and flushed
				return
			}
			if err := c.Insert(cur, types.Row{types.NewInt(int64(i)), types.NewInt(0), types.NewFloat(1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	c.BeginWrite()
	grow(1000)
	cur, _ := c.Table("emp")
	for sc := c.Store().NewScanner(cur.File); ; {
		if _, _, ok, err := sc.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if err := c.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	c.Discard()

	c.BeginWrite()
	grow(2000)
	c.Publish()
	cur, _ = c.Table("emp")
	before := c.Store().Stats()
	if _, err := c.Store().ReadPage(cur.File, flushed); err != nil {
		t.Fatal(err)
	}
	if got := c.Store().Stats().Sub(before); got.Reads != 1 || got.Hits != 0 {
		t.Fatalf("first read of a page flushed after the discard: %v; want one miss", got)
	}
}
