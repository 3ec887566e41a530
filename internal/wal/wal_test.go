package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggview/internal/types"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return l, rec
}

func sampleRecords() []Record {
	return []Record{
		CreateTable{
			Name:       "emp",
			Cols:       []ColumnDef{{"name", types.KindString}, {"dept", types.KindInt}, {"sal", types.KindFloat}},
			PrimaryKey: []string{"name"},
			ForeignKeys: []ForeignKeyDef{
				{Cols: []string{"dept"}, RefTable: "dept", RefCols: []string{"dno"}},
			},
		},
		Insert{Table: "emp", Rows: []types.Row{
			{types.NewString("alice"), types.NewInt(1), types.NewFloat(90000)},
			{types.NewString("bob"), types.NewInt(2), types.NewFloat(80000)},
		}},
		CreateView{Name: "dept_sal", Cols: []string{"dept", "total"}, SQL: "SELECT dept, SUM(sal) FROM emp GROUP BY dept"},
		CreateMatView{Name: "dept_sal_mv", SQL: "SELECT dept, SUM(sal) FROM emp GROUP BY dept", Backing: "dept_sal_mv_data", BaseTables: []string{"emp"}},
		Analyze{Table: "emp"},
		DropTable{Name: "emp"},
	}
}

// appendAll writes the sample records, syncs, and returns the last LSN.
func appendAll(t *testing.T, l *Log) uint64 {
	t.Helper()
	var last uint64
	for i, r := range sampleRecords() {
		lsn, err := l.Append(int64(i+1), r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = lsn
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return last
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Entries) != 0 || rec.Torn {
		t.Fatalf("fresh dir recovery not empty: %+v", rec)
	}
	last := appendAll(t, l)
	if last != uint64(len(sampleRecords())) {
		t.Fatalf("last LSN %d, want %d", last, len(sampleRecords()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec2.Torn {
		t.Fatal("clean shutdown reported torn")
	}
	want := sampleRecords()
	if len(rec2.Entries) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Entries), len(want))
	}
	for i, e := range rec2.Entries {
		if e.LSN != uint64(i+1) || e.Version != int64(i+1) {
			t.Fatalf("entry %d: LSN %d version %d", i, e.LSN, e.Version)
		}
		if e.Rec.Kind() != want[i].Kind() {
			t.Fatalf("entry %d: kind %s, want %s", i, e.Rec.Kind(), want[i].Kind())
		}
	}
	ct := rec2.Entries[0].Rec.(CreateTable)
	if ct.Name != "emp" || len(ct.Cols) != 3 || ct.Cols[2].Type != types.KindFloat ||
		len(ct.PrimaryKey) != 1 || len(ct.ForeignKeys) != 1 || ct.ForeignKeys[0].RefTable != "dept" {
		t.Fatalf("create-table did not roundtrip: %+v", ct)
	}
	ins := rec2.Entries[1].Rec.(Insert)
	if len(ins.Rows) != 2 || ins.Rows[0][0].S != "alice" || ins.Rows[1][2].F != 80000 {
		t.Fatalf("insert did not roundtrip: %+v", ins)
	}
	if l2.LastLSN() != last {
		t.Fatalf("reopened LastLSN %d, want %d", l2.LastLSN(), last)
	}
	// The reopened log continues the LSN sequence.
	lsn, err := l2.Append(100, Analyze{Table: "dept"})
	if err != nil || lsn != last+1 {
		t.Fatalf("continue append: lsn %d err %v", lsn, err)
	}
}

// appendRawRecord appends a CRC-valid frame holding payload (LSN, kind,
// version, body) to the first segment of a closed log, and returns the
// segment's path.
func appendRawRecord(t *testing.T, dir string, payload []byte) string {
	t.Helper()
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32Checksum(payload))
	frame = append(frame, payload...)
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// requireRefused opens the log and requires recovery to fail as corruption
// whose message holds every one of want, leaving the segment at path as it
// was: a reserved kind is not a torn tail, so nothing is truncated.
func requireRefused(t *testing.T, dir, path string, want ...string) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("open = %v, want it to name %q", err, w)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused open changed the segment: %d -> %d bytes", len(before), len(after))
	}
}

// A CRC-valid record of the reserved create-index kind, as logs written
// while the engine had CREATE INDEX hold them, fails recovery as corruption
// that names the kind. It is not a torn tail: the segment is left intact.
func TestCreateIndexRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The body is the one CREATE INDEX records carried: name, table, cols.
	payload := binary.LittleEndian.AppendUint64(nil, uint64(len(sampleRecords())+1))
	payload = append(payload, byte(KindCreateIndex))
	payload = binary.LittleEndian.AppendUint64(payload, 99)
	payload = putString(payload, "emp_dept")
	payload = putString(payload, "emp")
	payload = putStrings(payload, []string{"dept"})
	requireRefused(t, dir, appendRawRecord(t, dir, payload), "create-index", "CREATE INDEX was removed")
}

// A CRC-valid record of the reserved txn-abort kind — a frame closing a
// commit group, which the engine never wrote — fails recovery the same way,
// even inside an otherwise well-formed group.
func TestTxnAbortRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendAll(t, l)
	if _, err := l.Append(7, TxnBegin{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(8, Analyze{Table: "emp"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The body is the one a transaction frame carries: its 8-byte ID.
	payload := binary.LittleEndian.AppendUint64(nil, uint64(len(sampleRecords())+3))
	payload = append(payload, byte(KindTxnAbort))
	payload = binary.LittleEndian.AppendUint64(payload, 9)
	payload = binary.LittleEndian.AppendUint64(payload, 1)
	requireRefused(t, dir, appendRawRecord(t, dir, payload), "txn-abort", "never writes one")
}

// Every possible torn tail — the final frame cut at every byte offset —
// must recover the preceding records and report Torn.
func TestTornTailTruncation(t *testing.T) {
	base := t.TempDir()
	l, _ := mustOpen(t, filepath.Join(base, "seed"), Options{})
	appendAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(base, "seed", segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final record's frame begins by re-framing: scan frames.
	offs := []int{len(segMagic)}
	b := full[len(segMagic):]
	for len(b) > 8 {
		n := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		if len(b) < 8+n {
			break
		}
		offs = append(offs, offs[len(offs)-1]+8+n)
		b = b[8+n:]
	}
	lastFrame := offs[len(offs)-2]
	nRec := len(sampleRecords())

	for cut := lastFrame + 1; cut < len(full); cut++ {
		dir := filepath.Join(base, "cut", segName(uint64(cut)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := mustOpen(t, dir, Options{})
		if !rec.Torn {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if len(rec.Entries) != nRec-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Entries), nRec-1)
		}
		// The torn bytes are physically gone: a second recovery is clean.
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, rec3 := mustOpen(t, dir, Options{})
		if rec3.Torn || len(rec3.Entries) != nRec-1 {
			t.Fatalf("cut %d: second recovery torn=%v n=%d", cut, rec3.Torn, len(rec3.Entries))
		}
		// And the log continues from the surviving LSN.
		if lsn, err := l3.Append(1, Analyze{Table: "t"}); err != nil || lsn != uint64(nRec) {
			t.Fatalf("cut %d: append after torn recovery: lsn %d err %v", cut, lsn, err)
		}
		l3.Close()
	}
}

// A bad frame in a non-final segment is corruption, not a torn tail.
func TestCorruptMiddleSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64}) // force rotation
	appendAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	if len(names) < 2 {
		t.Fatalf("expected rotation, got segments %v", names)
	}
	first := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(first)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt middle segment: err %v, want ErrCorrupt", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(int64(i), Analyze{Table: "tbl"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %v", names)
	}
	l2, rec := mustOpen(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	if len(rec.Entries) != 40 || rec.Torn {
		t.Fatalf("recovered %d records torn=%v", len(rec.Entries), rec.Torn)
	}
	for i, e := range rec.Entries {
		if e.LSN != uint64(i+1) {
			t.Fatalf("entry %d has LSN %d", i, e.LSN)
		}
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(int64(i), Analyze{Table: "tbl"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := []byte("snapshot-state-at-20")
	if err := l.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if l.SizeSinceCheckpoint() != 0 {
		t.Fatalf("SizeSinceCheckpoint %d after checkpoint", l.SizeSinceCheckpoint())
	}
	names, _ := listSegments(dir)
	if len(names) != 1 {
		t.Fatalf("segments after checkpoint: %v", names)
	}
	// Records after the checkpoint land in the new segment.
	for i := 20; i < 25; i++ {
		if _, err := l.Append(int64(i), Analyze{Table: "tbl2"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != string(snap) {
		t.Fatalf("snapshot %q", rec.Snapshot)
	}
	if rec.CheckpointLSN != 20 {
		t.Fatalf("checkpoint LSN %d", rec.CheckpointLSN)
	}
	if len(rec.Entries) != 5 || rec.Entries[0].LSN != 21 {
		t.Fatalf("tail entries %d first LSN %v", len(rec.Entries), rec.Entries)
	}
}

// Records with LSN <= checkpoint LSN surviving in stale segments (deletion
// crashed mid-way) are skipped, keeping replay idempotent.
func TestRecoverySkipsPreCheckpointRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(int64(i), Analyze{Table: "tbl"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a checkpoint whose segment deletion never happened: write
	// checkpoint.bin directly, leaving segment 1 in place.
	ck := []byte(ckptMagic)
	ck = append(ck, 3, 0, 0, 0, 0, 0, 0, 0) // LSN 3
	snap := []byte("snap")
	sum := crc32Checksum(snap)
	ck = append(ck, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	ck = append(ck, byte(len(snap)), 0, 0, 0, 0, 0, 0, 0)
	ck = append(ck, snap...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.bin"), ck, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.CheckpointLSN != 3 {
		t.Fatalf("checkpoint LSN %d", rec.CheckpointLSN)
	}
	if len(rec.Entries) != 2 || rec.Entries[0].LSN != 4 || rec.Entries[1].LSN != 5 {
		t.Fatalf("entries %+v", rec.Entries)
	}
}

func TestCorruptCheckpointFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(1, Analyze{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint([]byte("good snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint.bin")
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: err %v, want ErrCorrupt", err)
	}
}

// A leftover checkpoint.tmp (crash before rename) is ignored.
func TestLeftoverTmpCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendAll(t, l)
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Snapshot != nil || len(rec.Entries) != len(sampleRecords()) {
		t.Fatalf("tmp checkpoint affected recovery: %+v", rec)
	}
}

// Crash injection: every write index n crashes deterministically; writes
// that succeeded before the crash are recoverable, later ones are gone,
// and the crashed log refuses further work.
func TestCrashSweepAppends(t *testing.T) {
	recs := sampleRecords()
	// Count writes in a clean run: 1 header + 1 per record.
	probe, _ := mustOpen(t, t.TempDir(), Options{})
	probe.InjectCrash(nil)
	for i, r := range recs {
		if _, err := probe.Append(int64(i+1), r); err != nil {
			t.Fatal(err)
		}
	}
	total := probe.Writes()
	probe.Close()
	if total != int64(len(recs)) {
		t.Fatalf("clean run writes = %d, want %d", total, len(recs))
	}

	for _, torn := range []bool{false, true} {
		for n := int64(0); n < total; n++ {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{})
			l.InjectCrash(&CrashPlan{CrashAfterNWrites: n, Torn: torn})
			acked := 0
			var gotErr error
			for i, r := range recs {
				if _, err := l.Append(int64(i+1), r); err != nil {
					gotErr = err
					break
				}
				acked++
			}
			if !errors.Is(gotErr, ErrCrashed) {
				t.Fatalf("n=%d torn=%v: err %v, want ErrCrashed", n, torn, gotErr)
			}
			if acked != int(n) {
				t.Fatalf("n=%d torn=%v: acked %d", n, torn, acked)
			}
			// All post-crash operations fail.
			if _, err := l.Append(9, Analyze{Table: "x"}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("n=%d: post-crash append err %v", n, err)
			}
			if err := l.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("n=%d: post-crash sync err %v", n, err)
			}
			if err := l.WriteCheckpoint(nil); !errors.Is(err, ErrCrashed) {
				t.Fatalf("n=%d: post-crash checkpoint err %v", n, err)
			}
			if !l.Crashed() {
				t.Fatalf("n=%d: Crashed() false", n)
			}
			l.Close()

			l2, rec := mustOpen(t, dir, Options{})
			if len(rec.Entries) != acked {
				t.Fatalf("n=%d torn=%v: recovered %d records, want %d", n, torn, len(rec.Entries), acked)
			}
			if torn && !rec.Torn {
				t.Fatalf("n=%d: torn write not detected", n)
			}
			for i, e := range rec.Entries {
				if e.Rec.Kind() != recs[i].Kind() {
					t.Fatalf("n=%d entry %d: kind %s", n, i, e.Rec.Kind())
				}
			}
			l2.Close()
		}
	}
}

// A crash during WriteCheckpoint leaves either the old state or the new
// one, never a half-checkpoint.
func TestCrashDuringCheckpoint(t *testing.T) {
	recs := sampleRecords()
	for n := int64(0); n < 4; n++ {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{})
		for i, r := range recs {
			if _, err := l.Append(int64(i+1), r); err != nil {
				t.Fatal(err)
			}
		}
		l.InjectCrash(&CrashPlan{CrashAfterNWrites: n, Torn: n%2 == 1})
		err := l.WriteCheckpoint([]byte("ckpt-snapshot"))
		l.Close()

		l2, rec := mustOpen(t, dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("n=%d: checkpoint err %v", n, err)
			}
			// Crash before or during the tmp write / rename: either the old
			// state (no snapshot, all records) or the committed new one.
			if rec.Snapshot == nil {
				if len(rec.Entries) != len(recs) {
					t.Fatalf("n=%d: old state lost records: %d", n, len(rec.Entries))
				}
			} else if string(rec.Snapshot) != "ckpt-snapshot" || len(rec.Entries) != 0 {
				t.Fatalf("n=%d: half checkpoint: snap=%q entries=%d", n, rec.Snapshot, len(rec.Entries))
			}
		} else {
			if string(rec.Snapshot) != "ckpt-snapshot" || len(rec.Entries) != 0 {
				t.Fatalf("n=%d: committed checkpoint not recovered", n)
			}
		}
		l2.Close()
	}
}

// crc32Checksum uses the production table for test fixture building.
func crc32Checksum(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}
