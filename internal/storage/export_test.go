package storage

import "aggview/internal/types"

// LiveFiles returns the number of files (tables and temporaries) currently
// registered with the store.
func (s *Store) LiveFiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// rowScanner reads a scan's pages a row at a time, each gathered from its
// page's vectors.
type rowScanner struct {
	sc   *Scanner
	page types.Block
	rid  int64
	slot int
}

func rowsOf(sc *Scanner) *rowScanner { return &rowScanner{sc: sc} }

// Next returns the next row and its rowid, or ok=false at end of file.
func (r *rowScanner) Next() (types.Row, int64, bool, error) {
	for r.slot == r.page.N {
		page, rid, ok, err := r.sc.NextPage()
		if !ok || err != nil {
			return nil, 0, false, err
		}
		r.page, r.rid, r.slot = page, rid, 0
	}
	r.slot++
	return r.page.Row(r.slot-1, nil), r.rid + int64(r.slot-1), true, nil
}
