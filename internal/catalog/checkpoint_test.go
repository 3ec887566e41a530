package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// buildRichCatalog creates a catalog exercising every serialized feature:
// multiple tables, a partial flushed page plus unflushed tail, stale
// statistics, foreign keys, and views.
func buildRichCatalog(t *testing.T) (*Catalog, *storage.Store) {
	t.Helper()
	st := storage.NewStore(64)
	c := New(st)
	emp, err := c.CreateTable("emp", []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
	}, []string{"eno"}, []schema.ForeignKey{
		{Cols: []string{"dno"}, RefTable: "dept", RefCols: []string{"dno"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dept, err := c.CreateTable("dept", []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dname"}, Type: types.KindString},
	}, []string{"dno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Insert(dept, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 37; i++ {
		if err := c.Insert(emp, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 5)), types.NewFloat(1000 + float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Analyze mid-load: Flush creates a partial flushed page, and stats go
	// stale relative to the rows inserted after.
	if err := c.Analyze(emp); err != nil {
		t.Fatal(err)
	}
	for i := 37; i < 50; i++ {
		if err := c.Insert(emp, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 5)), types.NewFloat(1000 + float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateView("v_sal", []string{"dno", "total"}, "SELECT dno, SUM(sal) FROM emp GROUP BY dno"); err != nil {
		t.Fatal(err)
	}
	return c, st
}

func TestSnapshotRoundtrip(t *testing.T) {
	c, _ := buildRichCatalog(t)
	snap := c.EncodeSnapshot()

	st2 := storage.NewStore(64)
	c2, err := DecodeSnapshot(st2, snap)
	if err != nil {
		t.Fatal(err)
	}

	// Determinism makes re-encoding the strongest equality check: every
	// serialized facet of the recovered catalog matches the original.
	snap2 := c2.EncodeSnapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", len(snap), len(snap2))
	}

	if c2.Version() != c.Version() {
		t.Fatalf("version %d != %d", c2.Version(), c.Version())
	}
	emp, ok := c2.Table("emp")
	if !ok {
		t.Fatal("emp missing")
	}
	orig, _ := c.Table("emp")
	if emp.File.Pages() != orig.File.Pages() || emp.File.Rows() != orig.File.Rows() {
		t.Fatalf("file layout: %d pages/%d rows, want %d/%d",
			emp.File.Pages(), emp.File.Rows(), orig.File.Pages(), orig.File.Rows())
	}
	if emp.Stats.Rows != orig.Stats.Rows || emp.Stats.Pages != orig.Stats.Pages {
		t.Fatalf("stats: %+v vs %+v", emp.Stats, orig.Stats)
	}
	// Stale stats stay stale: Analyze ran at 37 rows, the file has 50.
	if emp.Stats.Rows != 37 || emp.File.Rows() != 50 {
		t.Fatalf("staleness not preserved: stats %d rows, file %d", emp.Stats.Rows, emp.File.Rows())
	}
	v, ok := c2.View("v_sal")
	if !ok || v.SQL != "SELECT dno, SUM(sal) FROM emp GROUP BY dno" || len(v.Cols) != 2 {
		t.Fatalf("view: %+v %v", v, ok)
	}

	// Scanning the restored file returns the original's rows, rid for rid.
	sc1, sc2 := c.Store().NewScanner(orig.File), c2.Store().NewScanner(emp.File)
	for {
		r1, rid1, ok1, err1 := sc1.Next()
		r2, rid2, ok2, err2 := sc2.Next()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ok1 != ok2 || rid1 != rid2 {
			t.Fatalf("scan diverged: (%d, %v) vs (%d, %v)", rid1, ok1, rid2, ok2)
		}
		if !ok1 {
			break
		}
		for i := range r1 {
			if !types.Equal(r1[i], r2[i]) || r1[i].K != r2[i].K {
				t.Fatalf("rid %d col %d: %s != %s", rid1, i, r1[i], r2[i])
			}
		}
	}

	// The restored catalog accepts further mutations cleanly.
	if err := c2.Insert(emp, types.Row{types.NewInt(50), types.NewInt(0), types.NewFloat(9)}); err != nil {
		t.Fatal(err)
	}
	if c2.Version() != c.Version()+1 {
		t.Fatalf("version after insert %d", c2.Version())
	}
}

// A checkpoint taken while the engine had CREATE INDEX carries a non-zero
// index count in some table's index section; decoding refuses it by name
// instead of misreading the index payload as the next table.
func TestSnapshotDecodeRejectsIndexSection(t *testing.T) {
	st := storage.NewStore(64)
	c := New(st)
	if _, err := c.CreateTable("t", []schema.Column{{ID: schema.ColID{Name: "a"}, Type: types.KindInt}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap := c.EncodeSnapshot()
	// One table, no views, no matviews: the table's index count is the u32
	// just before the two trailing zero counts.
	at := len(snap) - 12
	if !bytes.Equal(snap[at:], make([]byte, 12)) {
		t.Fatalf("snapshot tail %x: layout assumption broke", snap[at:])
	}
	snap[at] = 1
	_, err := DecodeSnapshot(storage.NewStore(64), snap)
	if err == nil || !strings.Contains(err.Error(), "index section") || !strings.Contains(err.Error(), "CREATE INDEX was removed") {
		t.Fatalf("err = %v, want a refusal naming the index section", err)
	}
}

func TestSnapshotDecodeTruncated(t *testing.T) {
	c, _ := buildRichCatalog(t)
	snap := c.EncodeSnapshot()
	for _, cut := range []int{0, 4, len(snapMagic), len(snap) / 3, len(snap) - 1} {
		if _, err := DecodeSnapshot(storage.NewStore(64), snap[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte(nil), snap...)
	bad = append(bad, 0xff)
	if _, err := DecodeSnapshot(storage.NewStore(64), bad); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

// TestSnapshotDecodeRefusesOversizedCounts: a CRC-valid checkpoint can
// still carry a damaged count. The three counts that size an allocation —
// a table's columns, its pages, a page's rows — are refused when they
// exceed the bytes left, before anything is allocated from them.
func TestSnapshotDecodeRefusesOversizedCounts(t *testing.T) {
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	table := func() []byte { // magic, version, one table named "t"
		b := binary.LittleEndian.AppendUint64([]byte(snapMagic), 1)
		return append(u32(u32(b, 1), 1), 't')
	}
	const huge = 1 << 20
	for name, b := range map[string][]byte{
		"columns": u32(table(), huge),
		"pages":   u32(u32(u32(u32(table(), 0), 0), 0), huge),         // no columns, key or foreign keys
		"rows":    u32(u32(u32(u32(u32(table(), 0), 0), 0), 1), huge), // one page
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(storage.NewStore(8), b)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: err = %v, want an oversized count refused", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
			t.Errorf("%s: decoding allocated %d bytes from a count of %d", name, alloc, huge)
		}
	}
}

// TestSnapshotDecodeRefusesNonCanonicalNames: Encode writes each section's
// names sorted and distinct, so a duplicate or a reordering is damage — a
// duplicate table would silently replace the first.
func TestSnapshotDecodeRefusesNonCanonicalNames(t *testing.T) {
	st := storage.NewStore(64)
	c := New(st)
	for _, name := range []string{"a", "b"} {
		if _, err := c.CreateTable(name, []schema.Column{{ID: schema.ColID{Name: "x"}, Type: types.KindInt}}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.EncodeSnapshot()
	// The two table sections differ only in the name byte.
	i := bytes.Index(snap, []byte("\x01\x00\x00\x00b"))
	for _, name := range []byte{'a', '0'} {
		bad := append([]byte(nil), snap...)
		bad[i+4] = name
		if _, err := DecodeSnapshot(storage.NewStore(64), bad); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("second table renamed %q: err = %v", name, err)
		}
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the checkpoint decoder
// recovery runs on a CRC-valid checkpoint. Decoding must fail or yield a
// catalog that re-encodes to exactly the input bytes, and must never panic
// or size an allocation from an unchecked count. The committed corpus under
// testdata/fuzz/FuzzDecodeSnapshot holds an empty catalog, tables with
// flushed pages, an unflushed tail, column statistics and foreign keys, a
// view, a materialized view, a non-zero index section, and oversized
// counts; `make fuzz` searches beyond it.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeSnapshot(storage.NewStore(8), b)
		if err != nil {
			return
		}
		if got := c.EncodeSnapshot(); !bytes.Equal(got, b) {
			t.Fatalf("decoded snapshot re-encodes differently:\n in  %x\n out %x", b, got)
		}
	})
}

// recordingLogger captures hook invocations as strings.
type recordingLogger struct {
	ops  []string
	fail error
}

func (r *recordingLogger) CreateTable(name string, cols []schema.Column, pk []string, fks []schema.ForeignKey) error {
	r.ops = append(r.ops, "create-table "+name)
	return r.fail
}
func (r *recordingLogger) CreateView(name string, cols []string, sql string) error {
	r.ops = append(r.ops, "create-view "+name)
	return r.fail
}
func (r *recordingLogger) DropTable(name string) error {
	r.ops = append(r.ops, "drop-table "+name)
	return r.fail
}
func (r *recordingLogger) Insert(table string, row types.Row) error {
	r.ops = append(r.ops, "insert "+table)
	return r.fail
}
func (r *recordingLogger) Analyze(table string) error {
	r.ops = append(r.ops, "analyze "+table)
	return r.fail
}
func (r *recordingLogger) CreateMatView(name, sql, backing string, baseTables []string) error {
	r.ops = append(r.ops, "create-matview "+name)
	return r.fail
}
func (r *recordingLogger) DropMatView(name string) error {
	r.ops = append(r.ops, "drop-matview "+name)
	return r.fail
}

// The logger sees exactly one call per operation.
func TestLoggerTopLevelGranularity(t *testing.T) {
	c, tbl := newTestCatalog(t)
	lg := &recordingLogger{}
	c.SetLogger(lg)
	if err := c.Insert(tbl, types.Row{types.NewInt(1), types.NewInt(2), types.NewFloat(3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Analyze(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateView("v", nil, "select 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	want := []string{"insert emp", "analyze emp", "create-view v", "drop-table emp"}
	if len(lg.ops) != len(want) {
		t.Fatalf("ops = %v", lg.ops)
	}
	for i := range want {
		if lg.ops[i] != want[i] {
			t.Fatalf("op %d = %q, want %q", i, lg.ops[i], want[i])
		}
	}
}

// A failing logger propagates its error out of the mutation.
func TestLoggerErrorPropagates(t *testing.T) {
	c, tbl := newTestCatalog(t)
	lg := &recordingLogger{fail: fmt.Errorf("disk gone")}
	c.SetLogger(lg)
	if err := c.Insert(tbl, types.Row{types.NewInt(1), types.NewInt(2), types.NewFloat(3)}); err == nil {
		t.Fatal("logger failure swallowed")
	}
}

// The logged Insert row is the post-coercion row actually stored.
func TestLoggerSeesCoercedRow(t *testing.T) {
	c, tbl := newTestCatalog(t)
	var logged types.Row
	lg := &hookLogger{insert: func(table string, row types.Row) error {
		logged = append(types.Row(nil), row...)
		return nil
	}}
	c.SetLogger(lg)
	if err := c.Insert(tbl, types.Row{types.NewInt(1), types.NewInt(2), types.NewInt(900)}); err != nil {
		t.Fatal(err)
	}
	if logged[2].K != types.KindFloat {
		t.Fatalf("logged sal kind = %v, want FLOAT", logged[2].K)
	}
}

// hookLogger is a no-op logger with an overridable Insert.
type hookLogger struct {
	insert func(string, types.Row) error
}

func (h *hookLogger) CreateTable(string, []schema.Column, []string, []schema.ForeignKey) error {
	return nil
}
func (h *hookLogger) CreateView(string, []string, string) error { return nil }
func (h *hookLogger) DropTable(string) error                    { return nil }
func (h *hookLogger) Insert(table string, row types.Row) error {
	return h.insert(table, row)
}
func (h *hookLogger) Analyze(string) error                                 { return nil }
func (h *hookLogger) CreateMatView(string, string, string, []string) error { return nil }
func (h *hookLogger) DropMatView(string) error                             { return nil }
