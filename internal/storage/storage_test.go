package storage

import (
	"math/rand"
	"testing"

	"aggview/internal/types"
)

func row(i int64) types.Row {
	return types.Row{types.NewInt(i), types.NewString("payload")}
}

func fill(t *testing.T, s *Store, f *File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s.Append(f, row(int64(i)))
	}
	s.Flush(f)
}

func TestAppendScanRoundTrip(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	fill(t, s, f, 1000)
	if f.Rows() != 1000 {
		t.Fatalf("Rows = %d", f.Rows())
	}
	sc := s.NewScanner(f)
	var i int64
	for {
		r, rid, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rid != i || r[0].Int() != i {
			t.Fatalf("row %d: rid=%d val=%v", i, rid, r[0])
		}
		i++
	}
	if i != 1000 {
		t.Fatalf("scanned %d rows", i)
	}
}

func TestPageFillRespectsPageSize(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	fill(t, s, f, 500)
	perPage := PageSize / row(0).DiskWidth()
	wantPages := (500 + perPage - 1) / perPage
	if f.Pages() != wantPages {
		t.Fatalf("Pages = %d, want %d (perPage=%d)", f.Pages(), wantPages, perPage)
	}
}

func TestWideRowGetsOwnPage(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	big := make([]byte, PageSize)
	for i := range big {
		big[i] = 'x'
	}
	s.Append(f, types.Row{types.NewString(string(big))})
	s.Append(f, types.Row{types.NewInt(1)})
	s.Flush(f)
	if f.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", f.Pages())
	}
}

func TestIOAccountingColdAndWarm(t *testing.T) {
	s := NewStore(1000)
	f := s.CreateFile("t")
	fill(t, s, f, 2000)
	writes := s.Stats().Writes
	if writes != int64(f.Pages()) {
		t.Fatalf("writes = %d, want %d", writes, f.Pages())
	}

	before := s.Stats()
	sc := s.NewScanner(f)
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	st := s.Stats().Sub(before)
	if st.Reads != int64(f.Pages()) {
		t.Fatalf("cold reads = %d, want %d", st.Reads, f.Pages())
	}

	// Second scan with a big pool: all hits.
	before = s.Stats()
	sc = s.NewScanner(f)
	for {
		_, _, ok, _ := sc.Next()
		if !ok {
			break
		}
	}
	st = s.Stats().Sub(before)
	if st.Reads != 0 || st.Hits != int64(f.Pages()) {
		t.Fatalf("warm scan: %v", st)
	}
}

func TestPoolEvictionForcesRereads(t *testing.T) {
	s := NewStore(4)
	f := s.CreateFile("t")
	fill(t, s, f, 3000) // many more than 4 pages
	if f.Pages() <= 8 {
		t.Fatalf("test needs >8 pages, got %d", f.Pages())
	}
	before := s.Stats()
	for pass := 0; pass < 2; pass++ {
		sc := s.NewScanner(f)
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	st := s.Stats().Sub(before)
	if st.Reads != 2*int64(f.Pages()) {
		t.Fatalf("sequential flooding should re-read every page: %v (pages=%d)", st, f.Pages())
	}
}

func TestLRUKeepsHotPage(t *testing.T) {
	s := NewStore(2)
	f := s.CreateFile("t")
	fill(t, s, f, 600)
	if f.Pages() < 3 {
		t.Fatalf("need >=3 pages, got %d", f.Pages())
	}
	if _, err := s.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(f, 1); err != nil {
		t.Fatal(err)
	}
	// Touch page 0 to make it MRU, then fault page 2: page 1 must be evicted.
	if _, err := s.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(f, 2); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()
	if _, err := s.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Reads != st0.Reads {
		t.Fatalf("page 0 should still be resident")
	}
	if _, err := s.ReadPage(f, 1); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Reads != st0.Reads+1 {
		t.Fatalf("page 1 should have been evicted")
	}
}

func TestUnflushedTailReadable(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	s.Append(f, row(1))
	rows, err := s.ReadPage(f, 0)
	if err != nil || len(rows) != 1 {
		t.Fatalf("tail page read: %v %v", rows, err)
	}
}

func TestReadPageOutOfRange(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	if _, err := s.ReadPage(f, 0); err == nil {
		t.Fatalf("expected out-of-range error")
	}
}

func TestDropFileEvictsPages(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	fill(t, s, f, 100)
	if _, err := s.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	s.DropFile(f)
	g := s.CreateFile("u")
	fill(t, s, g, 100)
	before := s.Stats()
	if _, err := s.ReadPage(g, 0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Sub(before).Reads != 1 {
		t.Fatalf("fresh file page should miss")
	}
}

func TestDropCaches(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	fill(t, s, f, 10)
	if _, err := s.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	s.ForceDropCaches()
	before := s.Stats()
	if _, err := s.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Sub(before).Reads != 1 {
		t.Fatalf("ForceDropCaches should force a miss")
	}
}

func TestStatsSubAndTotal(t *testing.T) {
	a := IOStats{Reads: 10, Writes: 4, Hits: 7}
	b := IOStats{Reads: 3, Writes: 1, Hits: 2}
	d := a.Sub(b)
	if d.Reads != 7 || d.Writes != 3 || d.Hits != 5 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Total() != 10 {
		t.Fatalf("Total = %d", d.Total())
	}
}

func TestRandomAccessPattern(t *testing.T) {
	s := NewStore(16)
	f := s.CreateFile("t")
	fill(t, s, f, 5000)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		p := r.Intn(f.Pages())
		rows, err := s.ReadPage(f, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("page %d empty", p)
		}
	}
	st := s.Stats()
	if st.Reads+st.Hits < 1000 {
		t.Fatalf("accounting lost accesses: %v", st)
	}
}

// TestSnapshotRestoreFile: RestoreFile reproduces the exact physical layout
// SnapshotFile captured — including a partial flushed page that plain
// re-Appending would have merged away — without charging any IO.
func TestSnapshotRestoreFile(t *testing.T) {
	st := NewStore(8)
	f := st.CreateFile("t")
	wide := types.NewString(string(make([]byte, 900)))
	for i := 0; i < 5; i++ {
		if err := st.Append(f, types.Row{types.NewInt(int64(i)), wide}); err != nil {
			t.Fatal(err)
		}
	}
	// Force a partial page to disk, then keep appending: the layout now has
	// a short flushed page in the middle, unreachable via Append alone.
	if err := st.Flush(f); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := st.Append(f, types.Row{types.NewInt(int64(i)), wide}); err != nil {
			t.Fatal(err)
		}
	}

	pages, tail := st.SnapshotFile(f)
	wantPages, wantRows := f.Pages(), f.Rows()

	before := st.Stats()
	g := st.CreateFile("t2")
	st.RestoreFile(g, pages, tail)
	if d := st.Stats().Sub(before); d.Total() != 0 {
		t.Fatalf("snapshot/restore charged %d IOs", d.Total())
	}
	if g.Pages() != wantPages || g.Rows() != wantRows {
		t.Fatalf("restored layout %d pages/%d rows, want %d/%d", g.Pages(), g.Rows(), wantPages, wantRows)
	}
	// Per-page contents are identical.
	for n := 0; n < wantPages; n++ {
		a, err := st.ReadPage(f, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.ReadPage(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("page %d: %d rows vs %d", n, len(a), len(b))
		}
		for i := range a {
			if types.CompareRows(a[i], b[i], []int{0, 1}) != 0 {
				t.Fatalf("page %d row %d differs", n, i)
			}
		}
	}
	// Appending continues cleanly after a restore.
	if err := st.Append(g, types.Row{types.NewInt(99), wide}); err != nil {
		t.Fatal(err)
	}
	if g.Rows() != wantRows+1 {
		t.Fatalf("append after restore: %d rows", g.Rows())
	}
}
