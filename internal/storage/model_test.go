package storage

import (
	"math/rand"
	"testing"

	"aggview/internal/types"
)

// TestStoreModelBased drives the store with random operation sequences and
// checks every observable against a trivial in-memory model (a slice of
// rows per file). Covers interleaved appends, flushes, full and partial
// scans and cache drops across multiple files and tiny pools.
func TestStoreModelBased(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		pool := 1 + r.Intn(8)
		s := NewStore(pool)

		type modelFile struct {
			file *File
			rows []types.Row
		}
		var files []*modelFile
		newFile := func() {
			files = append(files, &modelFile{file: s.CreateFile("f")})
		}
		newFile()

		for op := 0; op < 2000; op++ {
			mf := files[r.Intn(len(files))]
			switch r.Intn(10) {
			case 0:
				if len(files) < 4 {
					newFile()
				}
			case 1:
				s.Flush(mf.file)
			case 2:
				s.ForceDropCaches()
			case 3, 4, 5, 6: // append
				row := types.Row{
					types.NewInt(int64(len(mf.rows))),
					types.NewString(randPayload(r)),
				}
				s.Append(mf.file, row)
				mf.rows = append(mf.rows, row)
			case 7: // full scan
				sc := rowsOf(s.NewScanner(mf.file))
				i := 0
				for {
					row, rid, ok, err := sc.Next()
					if err != nil {
						t.Fatalf("seed %d op %d: scan: %v", seed, op, err)
					}
					if !ok {
						break
					}
					if rid != int64(i) {
						t.Fatalf("seed %d op %d: rid %d, want %d", seed, op, rid, i)
					}
					if types.CompareRows(row, mf.rows[i], []int{0, 1}) != 0 {
						t.Fatalf("seed %d op %d: row %d mismatch", seed, op, i)
					}
					i++
				}
				if i != len(mf.rows) {
					t.Fatalf("seed %d op %d: scanned %d rows, want %d", seed, op, i, len(mf.rows))
				}
			case 8: // scan that stops at a random rid
				if len(mf.rows) == 0 {
					continue
				}
				want := int64(r.Intn(len(mf.rows)))
				sc := rowsOf(s.NewScanner(mf.file))
				for {
					row, rid, ok, err := sc.Next()
					if err != nil || !ok {
						t.Fatalf("seed %d op %d: scan to %d: ok=%v err=%v", seed, op, want, ok, err)
					}
					if rid == want {
						if types.CompareRows(row, mf.rows[rid], []int{0, 1}) != 0 {
							t.Fatalf("seed %d op %d: row %d mismatch", seed, op, rid)
						}
						break
					}
				}
			case 9: // invariants
				if got := mf.file.Rows(); got != int64(len(mf.rows)) {
					t.Fatalf("seed %d op %d: Rows() = %d, want %d", seed, op, got, len(mf.rows))
				}
				if mf.file.Pages() < 0 {
					t.Fatalf("negative pages")
				}
			}
		}

		// Monotonic counters.
		st := s.Stats()
		if st.Reads < 0 || st.Writes < 0 || st.Hits < 0 {
			t.Fatalf("seed %d: negative counters %v", seed, st)
		}
	}
}

func randPayload(r *rand.Rand) string {
	n := r.Intn(200)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}
