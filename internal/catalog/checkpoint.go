package catalog

import (
	"encoding/binary"
	"fmt"
	"sort"

	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Checkpoint snapshot codec. EncodeSnapshot serializes the entire catalog —
// schemas, views, heap contents and statistics — into one byte slice the
// write-ahead log stores as a checkpoint; DecodeSnapshot rebuilds an
// equivalent catalog over a fresh store.
//
// Two equivalence requirements shape the format:
//
//   - Heap files are captured page by page (including a partial flushed
//     page and the unflushed tail), not as a flat row list. Page counts
//     feed statistics and the cost model, and Flush can produce layouts a
//     plain re-Append would merge, so "same rows" is not enough — the
//     recovered engine must plan and charge IO exactly like one that never
//     crashed.
//   - Statistics are serialized, not recomputed. They go stale between
//     Analyze calls by design; rebuilding them at recovery would hand the
//     recovered engine fresher state than the crashed one had, and with it
//     different plans.
//   - Each table still carries the index-count field of the format that
//     had CREATE INDEX, always written as zero, so an index-free snapshot
//     is byte-identical to the one that format wrote. A non-zero count
//     comes from a checkpoint taken after a CREATE INDEX and is refused.
//
// The snapshot travels inside a CRC-checked wal checkpoint, so a decode
// failure here means corruption (or a format skew) and recovery fails
// loudly rather than guessing. A CRC only proves the bytes are the ones
// written, so the decoder trusts nothing it reads: a count larger than the
// bytes left is refused before anything is sized from it, and names that
// are duplicated or out of Encode's sorted order are refused too — they
// would not re-encode to the same bytes.

const snapMagic = "AGVSNAP2"

// EncodeSnapshot serializes the current catalog state: the working batch's
// snapshot when one is open (so a checkpoint taken at commit captures the
// about-to-publish version), the published head otherwise.
func (c *Catalog) EncodeSnapshot() []byte { return c.view().Encode() }

// Encode serializes the full snapshot state. Iteration orders are sorted
// so the same state always produces the same bytes.
func (s *Snapshot) Encode() []byte {
	dst := []byte(snapMagic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.version))

	names := s.TableNames()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	for _, name := range names {
		t := s.tables[name]
		dst = snapPutString(dst, t.Name)

		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Schema)))
		for _, col := range t.Schema {
			dst = snapPutString(dst, col.ID.Name)
			dst = append(dst, byte(col.Type))
		}
		dst = snapPutStrings(dst, t.PrimaryKey)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.ForeignKeys)))
		for _, fk := range t.ForeignKeys {
			dst = snapPutStrings(dst, fk.Cols)
			dst = snapPutString(dst, fk.RefTable)
			dst = snapPutStrings(dst, fk.RefCols)
		}

		// Exact physical layout: flushed pages, then the unflushed tail.
		pages, tail := s.store.SnapshotFile(t.File)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
		for _, page := range pages {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(page)))
			for _, row := range page {
				dst = types.EncodeRow(dst, row)
			}
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tail)))
		for _, row := range tail {
			dst = types.EncodeRow(dst, row)
		}

		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Stats.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Stats.Pages))
		colNames := make([]string, 0, len(t.Stats.Cols))
		for cn := range t.Stats.Cols {
			colNames = append(colNames, cn)
		}
		sort.Strings(colNames)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(colNames)))
		for _, cn := range colNames {
			cs := t.Stats.Cols[cn]
			dst = snapPutString(dst, cn)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(cs.NDV))
			dst = types.EncodeValue(dst, cs.Min)
			dst = types.EncodeValue(dst, cs.Max)
		}

		dst = binary.LittleEndian.AppendUint32(dst, 0) // index count
	}

	vnames := s.ViewNames()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vnames)))
	for _, name := range vnames {
		v := s.views[name]
		dst = snapPutString(dst, v.Name)
		dst = snapPutStrings(dst, v.Cols)
		dst = snapPutString(dst, v.SQL)
	}

	mvnames := s.MatViewNames()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(mvnames)))
	for _, name := range mvnames {
		mv := s.matviews[name]
		dst = snapPutString(dst, mv.Name)
		dst = snapPutString(dst, mv.SQL)
		dst = snapPutString(dst, mv.Backing)
		dst = snapPutStrings(dst, mv.BaseTables)
	}
	return dst
}

// DecodeSnapshot rebuilds a catalog over store from an EncodeSnapshot
// image. The store should be fresh; heap files are recreated with their
// original page layout and no IO is charged.
func DecodeSnapshot(store *storage.Store, data []byte) (*Catalog, error) {
	r := &snapReader{b: data}
	if string(r.bytes(len(snapMagic))) != snapMagic {
		return nil, fmt.Errorf("catalog: snapshot: bad magic")
	}
	version := int64(r.u64())
	snap := &Snapshot{
		version:  version,
		store:    store,
		tables:   map[string]*Table{},
		views:    map[string]*View{},
		matviews: map[string]*MatView{},
	}

	nt := r.count()
	prev := ""
	for i := 0; i < nt && r.err == nil; i++ {
		name := r.str()
		r.ordered("table", i, &prev, name)
		t := &Table{
			Name:  name,
			Stats: TableStats{Cols: map[string]ColStats{}},
		}

		nc := r.count()
		t.Schema = make(schema.Schema, 0, nc)
		for j := 0; j < nc && r.err == nil; j++ {
			cn := r.str()
			kind := types.Kind(r.u8())
			t.Schema = append(t.Schema, schema.Column{ID: schema.ColID{Rel: name, Name: cn}, Type: kind})
		}
		t.PrimaryKey = r.strs()
		nf := r.count()
		for j := 0; j < nf && r.err == nil; j++ {
			var fk schema.ForeignKey
			fk.Cols = r.strs()
			fk.RefTable = r.str()
			fk.RefCols = r.strs()
			t.ForeignKeys = append(t.ForeignKeys, fk)
		}

		np := r.count()
		pages := make([][]types.Row, 0, np)
		for j := 0; j < np && r.err == nil; j++ {
			nr := r.count()
			page := make([]types.Row, 0, nr)
			for k := 0; k < nr && r.err == nil; k++ {
				page = append(page, r.row())
			}
			pages = append(pages, page)
		}
		ntail := r.count()
		var tail []types.Row
		for j := 0; j < ntail && r.err == nil; j++ {
			tail = append(tail, r.row())
		}

		t.Stats.Rows = int64(r.u64())
		t.Stats.Pages = int(r.u32())
		ncs := r.count()
		prevCol := ""
		for j := 0; j < ncs && r.err == nil; j++ {
			cn := r.str()
			r.ordered("column statistics", j, &prevCol, cn)
			var cs ColStats
			cs.NDV = int64(r.u64())
			cs.Min = r.value()
			cs.Max = r.value()
			t.Stats.Cols[cn] = cs
		}

		if nix := r.u32(); nix != 0 && r.err == nil {
			return nil, fmt.Errorf("catalog: snapshot: table %q has %d indexes in its index section; CREATE INDEX was removed, so this checkpoint cannot be opened", name, nix)
		}

		if r.err != nil {
			break
		}
		t.File = store.CreateFile(name)
		store.RestoreFile(t.File, pages, tail)
		snap.tables[name] = t
	}

	nv := r.count()
	for i := 0; i < nv && r.err == nil; i++ {
		v := &View{}
		v.Name = r.str()
		r.ordered("view", i, &prev, v.Name)
		v.Cols = r.strs()
		v.SQL = r.str()
		snap.views[v.Name] = v
	}

	nmv := r.count()
	for i := 0; i < nmv && r.err == nil; i++ {
		mv := &MatView{}
		mv.Name = r.str()
		r.ordered("materialized view", i, &prev, mv.Name)
		mv.SQL = r.str()
		mv.Backing = r.str()
		mv.BaseTables = r.strs()
		snap.matviews[mv.Name] = mv
	}
	if r.err != nil {
		return nil, fmt.Errorf("catalog: snapshot: %w", r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("catalog: snapshot: %d trailing bytes", len(r.b))
	}
	c := &Catalog{store: store}
	c.head.Store(snap)
	return c, nil
}

// --- encode/decode helpers --------------------------------------------

func snapPutString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func snapPutStrings(dst []byte, ss []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = snapPutString(dst, s)
	}
	return dst
}

// snapReader decodes with a latched error so call sites stay linear; after
// the first failure every read returns a zero value.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s (%d bytes left)", what, len(r.b))
	}
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail("bytes")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *snapReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads an element count. Every element takes at least one byte, so
// a count larger than the bytes left is damage.
func (r *snapReader) count() int {
	n := int(r.u32())
	if n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b))
		}
		return 0
	}
	return n
}

// ordered latches an error unless name, the i-th of its section, sorts
// strictly after the one before it (*prev), then makes it the one before.
func (r *snapReader) ordered(what string, i int, prev *string, name string) {
	if i > 0 && name <= *prev && r.err == nil {
		r.err = fmt.Errorf("%s %q after %q: duplicate or out of order", what, name, *prev)
	}
	*prev = name
}

func (r *snapReader) str() string {
	n := int(r.u32())
	return string(r.bytes(n))
}

func (r *snapReader) strs() []string {
	n := r.count()
	var out []string
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

func (r *snapReader) value() types.Value {
	if r.err != nil {
		return types.Value{}
	}
	v, rest, err := types.DecodeValue(r.b)
	if err != nil {
		r.err = err
		return types.Value{}
	}
	r.b = rest
	return v
}

func (r *snapReader) row() types.Row {
	if r.err != nil {
		return nil
	}
	row, rest, err := types.DecodeRow(r.b)
	if err != nil {
		r.err = err
		return nil
	}
	r.b = rest
	return row
}
