package storage

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/types"
)

// columnValuePool holds a value of every kind at its edges: NULL, NaNs of
// two payloads, ±0, INTs and FLOATs around ±2^53, BOOLEAN payloads 0, 1
// and 2, and VARCHARs empty, short and long.
var columnValuePool = []types.Value{
	types.Null(),
	types.NewInt(0), types.NewInt(-1), types.NewInt(1 << 53), types.NewInt(-(1 << 53)), types.NewInt(1<<53 + 1),
	types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
	types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()),
	types.NewFloat(math.Float64frombits(0xfff8000000000001)), types.NewFloat(1 << 53), types.NewFloat(-2.5),
	types.NewFloat(math.Inf(1)),
	types.NewBool(false), types.NewBool(true), {K: types.KindBool, I: 2},
	types.NewString(""), types.NewString("a"), types.NewString(strings.Repeat("xyz", 300)),
}

// randomColumnValue draws a value for column c: column 0 mixes every kind;
// the others hold one kind, or NULL.
func randomColumnValue(r *rand.Rand, c int) types.Value {
	if c == 0 {
		return columnValuePool[r.Intn(len(columnValuePool))]
	}
	if r.Intn(4) == 0 {
		return types.Null()
	}
	switch c {
	case 1:
		return types.NewInt(r.Int63n(1<<54) - 1<<53)
	case 2:
		return types.NewFloat(r.NormFloat64())
	case 3:
		return types.NewString(strings.Repeat("s", r.Intn(40)))
	default:
		return types.NewBool(r.Intn(2) == 0)
	}
}

// sameBits reports whether a and b are the same value, kind and bits.
func sameBits(a, b types.Value) bool {
	return bytes.Equal(types.EncodeValue(nil, a), types.EncodeValue(nil, b))
}

// readAll gathers every row of f, page by page, and the row counts of its
// pages.
func readAll(t *testing.T, s *Store, f *File) (rows []types.Row, pages []int) {
	t.Helper()
	for sc := s.NewScanner(f); ; {
		page, rid, ok, err := sc.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows, pages
		}
		if rid != int64(len(rows)) {
			t.Fatalf("page %d starts at rowid %d, want %d", len(pages), rid, len(rows))
		}
		rows, pages = page.AppendRows(rows), append(pages, page.N)
	}
}

// checkRows fails unless got holds want's rows, value for value.
func checkRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !sameBits(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d column %d is %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestColumnPageProperties appends random rows of every kind to a file and
// holds its column pages to the row model they replaced: gathering the
// vectors gives back each row, kind and bits; the page boundaries and
// Pages() are those of the fill rule (each row's DiskWidth against
// PageSize, and explicit flushes); SnapshotFile then RestoreFile, and
// CloneFile, reproduce the file; and appending to a clone's tail never
// shows through the original, nor the original's through the clone.
func TestColumnPageProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore(8)
		f := s.CreateFile("t")
		var want []types.Row
		var wantPages []int // the fill rule's page sizes
		cur, curBytes := 0, 0
		for i, n := 0, 1+r.Intn(600); i < n; i++ {
			row := make(types.Row, 5)
			for c := range row {
				row[c] = randomColumnValue(r, c)
			}
			if w := row.DiskWidth(); curBytes > 0 && curBytes+w > PageSize {
				wantPages, cur, curBytes = append(wantPages, cur), 0, 0
			}
			if err := s.Append(f, row.Clone()); err != nil {
				t.Fatal(err)
			}
			want, cur, curBytes = append(want, row), cur+1, curBytes+row.DiskWidth()
			if r.Intn(50) == 0 {
				if err := s.Flush(f); err != nil {
					t.Fatal(err)
				}
				wantPages, cur, curBytes = append(wantPages, cur), 0, 0
			}
		}
		if cur > 0 {
			wantPages = append(wantPages, cur)
		}
		got, pages := readAll(t, s, f)
		checkRows(t, "scan", got, want)
		if len(pages) != len(wantPages) || f.Pages() != len(wantPages) {
			t.Fatalf("seed %d: %d pages (Pages() %d), fill rule %d", seed, len(pages), f.Pages(), len(wantPages))
		}
		for i := range pages {
			if pages[i] != wantPages[i] {
				t.Fatalf("seed %d: page %d holds %d rows, fill rule %d", seed, i, pages[i], wantPages[i])
			}
		}

		snapPages, tail := s.SnapshotFile(f)
		g := s.CreateFile("restored")
		s.RestoreFile(g, snapPages, tail)
		got, pages = readAll(t, s, g)
		checkRows(t, "restored", got, want)
		if len(pages) != len(wantPages) || g.Rows() != f.Rows() {
			t.Fatalf("seed %d: restored %d pages, %d rows; want %d, %d", seed, len(pages), g.Rows(), len(wantPages), f.Rows())
		}

		clone := s.CloneFile(f)
		got, _ = readAll(t, s, clone)
		checkRows(t, "clone", got, want)
		// Appends to the clone's tail and then the original's: each file
		// sees its own rows only.
		extra := types.Row{types.NewString("clone"), types.NewInt(7), types.Null(), types.NewString("c"), types.NewBool(true)}
		other := types.Row{types.NewFloat(math.NaN()), types.Null(), types.NewFloat(1), types.NewString("o"), types.Null()}
		if err := s.Append(clone, extra.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(f, other.Clone()); err != nil {
			t.Fatal(err)
		}
		got, _ = readAll(t, s, f)
		checkRows(t, "original after the clone's append", got, append(append([]types.Row{}, want...), other))
		got, _ = readAll(t, s, clone)
		checkRows(t, "clone after the original's append", got, append(append([]types.Row{}, want...), extra))
	}
}

// TestColumnPageRefusesOtherArity: a page holds rows of its first row's
// arity; a row of another is refused and leaves the file as it was.
func TestColumnPageRefusesOtherArity(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	if err := s.Append(f, types.Row{types.NewInt(1), types.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(f, types.Row{types.NewInt(1)}); err == nil {
		t.Fatal("a row of arity 1 appended to a page of arity 2")
	}
	if got, _ := readAll(t, s, f); len(got) != 1 || f.Rows() != 1 {
		t.Fatalf("%d rows after the refused append (Rows() %d), want 1", len(got), f.Rows())
	}
}

// FuzzColumnPage decodes rows from arbitrary bytes, appends them to a
// file, gathers them back from its column pages and re-encodes them: the
// encodings of the rows appended must be the bytes they were decoded
// from. Decoding stops at the first error, appending at the first row of
// another arity than the page's; neither may panic.
func FuzzColumnPage(f *testing.F) {
	f.Add(types.EncodeRow(nil, types.Row{types.NewInt(1), types.NewString("a")}))
	f.Add(types.EncodeRow(types.EncodeRow(nil, types.Row{types.NewFloat(math.NaN())}), types.Row{types.Null()}))
	f.Add(types.EncodeRow(types.EncodeRow(nil, types.Row{types.NewBool(true), types.Null()}), types.Row{types.NewInt(3)}))
	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewStore(4)
		file := s.CreateFile("fuzz")
		var want []byte
		for len(b) > 0 {
			row, rest, err := types.DecodeRow(b)
			if err != nil {
				break
			}
			if err := s.Append(file, row); err != nil {
				break
			}
			want = append(want, b[:len(b)-len(rest)]...)
			b = rest
		}
		if err := s.Flush(file); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for sc := s.NewScanner(file); ; {
			page, _, ok, err := sc.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, row := range page.AppendRows(nil) {
				got = types.EncodeRow(got, row)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encoded %x, appended %x", got, want)
		}
	})
}
