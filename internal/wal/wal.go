// Package wal implements the engine's durability substrate: an append-only,
// checksummed, segmented write-ahead log of logical catalog/data mutations,
// plus checkpoint snapshots that bound recovery work and let obsolete
// segments be deleted.
//
// Directory layout (everything lives under one data directory):
//
//	wal-00000001.log   log segments, in sequence order
//	wal-00000002.log
//	checkpoint.bin     latest catalog/heap snapshot (atomic rename target)
//	checkpoint.tmp     in-progress checkpoint (ignored at recovery)
//
// Segment format: an 8-byte magic, then records. Each record is framed as
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// where the payload is the record's LSN (u64) followed by the encoded
// mutation (see record.go). Recovery verifies every frame; a short or
// checksum-failing frame at the tail of the last segment is a torn write —
// the tail is truncated and recovery succeeds — while a bad frame anywhere
// else is real corruption and fails recovery loudly.
//
// Crash model for the injection harness: a write that returned success is
// durable (the simulated crash cuts off the process at write-call
// granularity); the crashing write itself persists nothing or, in torn
// mode, an arbitrary prefix. After the crash point every operation on the
// Log fails with ErrCrashed, so the engine above it freezes exactly as a
// killed process would.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrCrashed is returned by every Log operation after an injected crash
// point has fired; detect it with errors.Is. It wraps nothing — a crashed
// log is unusable by design and the engine must be reopened from disk.
var ErrCrashed = errors.New("wal: injected crash")

// ErrCorrupt reports unrecoverable log damage: a bad frame that is not a
// torn tail, or an undecodable record that passed its checksum.
var ErrCorrupt = errors.New("wal: corrupt log")

const (
	segMagic  = "AGVWAL01"
	ckptMagic = "AGVCKPT1"
	// DefaultSegmentBytes is the rotation threshold for log segments.
	DefaultSegmentBytes = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (DefaultSegmentBytes when <= 0).
	SegmentBytes int64
}

// CrashPlan configures deterministic crash injection, the durability
// counterpart of storage.FaultPlan. The sweep harness runs the same
// workload once per write index with CrashAfterNWrites = 0, 1, 2, …,
// proving that a crash at every point of the log's life recovers to a
// state equivalent to a never-crashed engine.
type CrashPlan struct {
	// CrashAfterNWrites fails the Nth physical log/checkpoint write
	// (0-based) and every operation after it. Negative disables.
	CrashAfterNWrites int64
	// Torn persists a prefix of the crashing write before failing,
	// simulating a torn page/sector write of the final record.
	Torn bool
	// TornBytes is how many bytes of the crashing write survive (default:
	// half of the write, at least one byte short of all of it).
	TornBytes int
}

// Recovery is what Open found on disk: the latest checkpoint snapshot (nil
// when none was ever written), the log records after it in LSN order, and
// whether a torn tail was truncated.
type Recovery struct {
	Snapshot      []byte
	CheckpointLSN uint64
	Entries       []Entry
	Torn          bool
}

// Log is an open write-ahead log: exclusive owner of its directory's
// segment and checkpoint files. Methods are not safe for concurrent use —
// the engine serializes mutations behind its write lock, which is also
// what makes the LSN order the commit order.
type Log struct {
	dir string
	opt Options

	seg     *os.File // current segment, open for append
	segSeq  uint64   // current segment sequence number
	segSize int64    // bytes written to the current segment

	lsn       uint64 // last assigned LSN
	ckptLSN   uint64 // LSN covered by the latest checkpoint
	sinceCkpt int64  // record bytes appended since the latest checkpoint

	writes  int64 // physical writes performed (crash-sweep sizing)
	crash   *CrashPlan
	crashed bool
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// Open opens (creating if needed) the write-ahead log in dir and performs
// the read side of recovery: it loads the latest valid checkpoint, scans
// every segment, verifies frames, truncates a torn tail, and returns the
// surviving entries with LSN > checkpoint LSN. The caller replays them
// onto the snapshot and then appends new records through the returned Log.
func Open(dir string, opt Options) (*Log, *Recovery, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opt: opt}
	rec := &Recovery{}

	// Latest checkpoint first: it defines which records still matter.
	snap, ckptLSN, err := readCheckpoint(filepath.Join(dir, "checkpoint.bin"))
	if err != nil {
		return nil, nil, err
	}
	rec.Snapshot, rec.CheckpointLSN = snap, ckptLSN
	l.ckptLSN, l.lsn = ckptLSN, ckptLSN

	names, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	for i, name := range names {
		last := i == len(names)-1
		entries, torn, err := l.scanSegment(filepath.Join(dir, name), last)
		if err != nil {
			return nil, nil, err
		}
		rec.Torn = rec.Torn || torn
		for _, e := range entries {
			// Records at or below the checkpoint LSN are already part of the
			// snapshot; they survive only when a crash interrupted segment
			// deletion after a checkpoint rename. Skipping them is what makes
			// replay idempotent across repeated recoveries.
			if e.LSN <= ckptLSN {
				continue
			}
			if e.LSN != l.lsn+1 {
				return nil, nil, fmt.Errorf("%w: LSN gap: have %d, next record is %d", ErrCorrupt, l.lsn, e.LSN)
			}
			l.lsn = e.LSN
			rec.Entries = append(rec.Entries, e)
		}
	}

	// Open the last segment for append, or start the first one.
	if len(names) == 0 {
		if err := l.rotate(1); err != nil {
			return nil, nil, err
		}
	} else {
		last := names[len(names)-1]
		seq, _ := segSeq(last)
		f, err := os.OpenFile(filepath.Join(dir, last), os.O_RDWR, 0o644)
		if err != nil {
			return nil, nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if st.Size() < int64(len(segMagic)) {
			// A rotation crashed before the magic landed; re-init in place.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, nil, err
			}
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				f.Close()
				return nil, nil, err
			}
			st, err = f.Stat()
			if err != nil {
				f.Close()
				return nil, nil, err
			}
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.seg, l.segSeq, l.segSize = f, seq, st.Size()
	}
	return l, rec, nil
}

// listSegments returns the segment file names in sequence order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			if _, ok := segSeq(e.Name()); ok {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

func segSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// scanSegment reads one segment's records, verifying each frame. In the
// last segment a bad or short frame marks a torn tail: the file is
// physically truncated to the last good frame and scanning stops. In any
// earlier segment the same condition is corruption.
func (l *Log) scanSegment(path string, last bool) ([]Entry, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	tornAt := func(off int64) (bool, error) {
		if !last {
			return false, fmt.Errorf("%w: bad frame at %s:%d (not the final segment)", ErrCorrupt, filepath.Base(path), off)
		}
		if err := os.Truncate(path, off); err != nil {
			return false, err
		}
		return true, nil
	}

	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		if len(data) == 0 || last {
			// A crash can leave the final segment empty or with a partial
			// header; older segments must be intact.
			torn, err := tornAt(0)
			return nil, torn, err
		}
		return nil, false, fmt.Errorf("%w: bad segment magic in %s", ErrCorrupt, filepath.Base(path))
	}

	var entries []Entry
	off := int64(len(segMagic))
	buf := data[off:]
	for len(buf) > 0 {
		if len(buf) < 8 {
			torn, err := tornAt(off)
			return entries, torn, err
		}
		n := int(binary.LittleEndian.Uint32(buf[0:4]))
		sum := binary.LittleEndian.Uint32(buf[4:8])
		if len(buf) < 8+n {
			torn, err := tornAt(off)
			return entries, torn, err
		}
		payload := buf[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			torn, err := tornAt(off)
			return entries, torn, err
		}
		if n < 8 {
			return entries, false, fmt.Errorf("%w: runt record at %s:%d", ErrCorrupt, filepath.Base(path), off)
		}
		lsn := binary.LittleEndian.Uint64(payload[:8])
		version, rec, err := decodeRecord(payload[8:])
		if err != nil {
			// The payload passed its CRC, so this is format damage, not a
			// torn write: fail recovery rather than silently drop history.
			return entries, false, fmt.Errorf("%w: record LSN %d: %v", ErrCorrupt, lsn, err)
		}
		entries = append(entries, Entry{LSN: lsn, Version: version, Rec: rec})
		off += int64(8 + n)
		buf = buf[8+n:]
	}
	return entries, false, nil
}

// write performs one counted physical write, honoring the crash plan.
func (l *Log) write(f *os.File, b []byte) error {
	if l.crashed {
		return ErrCrashed
	}
	n := l.writes
	l.writes++
	if l.crash != nil && l.crash.CrashAfterNWrites >= 0 && n == l.crash.CrashAfterNWrites {
		l.crashed = true
		if l.crash.Torn && len(b) > 1 {
			keep := len(b) / 2
			if l.crash.TornBytes > 0 {
				keep = l.crash.TornBytes
			}
			if keep >= len(b) {
				keep = len(b) - 1
			}
			f.Write(b[:keep])
		}
		return fmt.Errorf("%w (write #%d)", ErrCrashed, n)
	}
	_, err := f.Write(b)
	return err
}

// Append frames and writes one record, assigning it the next LSN. The
// record is in the OS file after Append returns but is only durable — and
// must only be acknowledged — after Sync.
func (l *Log) Append(version int64, rec Record) (uint64, error) {
	if l.crashed {
		return 0, ErrCrashed
	}
	payload := binary.LittleEndian.AppendUint64(nil, l.lsn+1)
	payload = append(payload, encodeRecord(version, rec)...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)

	if l.segSize+int64(len(frame)) > l.opt.SegmentBytes && l.segSize > int64(len(segMagic)) {
		if err := l.rotateNext(); err != nil {
			return 0, err
		}
	}
	if err := l.write(l.seg, frame); err != nil {
		return 0, err
	}
	l.lsn++
	l.segSize += int64(len(frame))
	l.sinceCkpt += int64(len(frame))
	return l.lsn, nil
}

// Sync makes every appended record durable (fsync on the current segment).
// Records in earlier segments were synced when the log rotated away from
// them.
func (l *Log) Sync() error {
	if l.crashed {
		return ErrCrashed
	}
	return l.seg.Sync()
}

// rotateNext syncs and closes the current segment and opens the next one.
func (l *Log) rotateNext() error {
	if err := l.seg.Sync(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return err
	}
	l.seg = nil
	return l.rotate(l.segSeq + 1)
}

// rotate creates and initializes segment seq and makes it current.
func (l *Log) rotate(seq uint64) error {
	if l.crashed {
		return ErrCrashed
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := l.write(f, []byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	l.seg, l.segSeq, l.segSize = f, seq, int64(len(segMagic))
	return nil
}

// WriteCheckpoint makes snapshot the new recovery base: it syncs the log,
// writes the snapshot to a temporary file, fsyncs it, atomically renames it
// over checkpoint.bin, and then deletes every now-obsolete segment and
// starts a fresh one. A crash at any point leaves either the old
// checkpoint with the full log, or the new checkpoint with segments whose
// records recovery skips by LSN — never a half-state.
func (l *Log) WriteCheckpoint(snapshot []byte) error {
	if l.crashed {
		return ErrCrashed
	}
	// Everything the snapshot captures must be on disk before the
	// checkpoint can claim to cover it.
	if err := l.Sync(); err != nil {
		return err
	}

	buf := []byte(ckptMagic)
	buf = binary.LittleEndian.AppendUint64(buf, l.lsn)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(snapshot, crcTable))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snapshot)))
	buf = append(buf, snapshot...)

	tmpPath := filepath.Join(l.dir, "checkpoint.tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := l.write(tmp, buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if l.crashed {
		return ErrCrashed
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, "checkpoint.bin")); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	ckptLSN := l.lsn

	// The rename is the commit point; everything after is garbage
	// collection that recovery tolerates losing.
	oldSeq := l.segSeq
	if err := l.seg.Close(); err != nil {
		return err
	}
	l.seg = nil
	if err := l.rotate(oldSeq + 1); err != nil {
		return err
	}
	names, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if seq, ok := segSeq(name); ok && seq <= oldSeq {
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return err
			}
		}
	}
	l.ckptLSN = ckptLSN
	l.sinceCkpt = 0
	return nil
}

// readCheckpoint loads and verifies checkpoint.bin; a missing file is a
// fresh database (nil snapshot), a damaged one fails recovery.
func readCheckpoint(path string) ([]byte, uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	hdr := len(ckptMagic) + 8 + 4 + 8
	if len(data) < hdr || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, 0, fmt.Errorf("%w: bad checkpoint header", ErrCorrupt)
	}
	lsn := binary.LittleEndian.Uint64(data[len(ckptMagic):])
	sum := binary.LittleEndian.Uint32(data[len(ckptMagic)+8:])
	n := binary.LittleEndian.Uint64(data[len(ckptMagic)+12:])
	body := data[hdr:]
	if uint64(len(body)) != n {
		return nil, 0, fmt.Errorf("%w: checkpoint length %d, want %d", ErrCorrupt, len(body), n)
	}
	if crc32.Checksum(body, crcTable) != sum {
		return nil, 0, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return body, lsn, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close syncs and closes the log. A crashed log closes without syncing.
func (l *Log) Close() error {
	if l.seg == nil {
		return nil
	}
	if !l.crashed {
		if err := l.seg.Sync(); err != nil {
			return err
		}
	}
	err := l.seg.Close()
	l.seg = nil
	return err
}

// InjectCrash arms crash injection for subsequent physical writes,
// replacing any previous plan and resetting the write counter. A nil plan
// disarms (but a log already crashed stays crashed).
func (l *Log) InjectCrash(p *CrashPlan) {
	l.crash = p
	l.writes = 0
}

// Writes reports the physical writes performed since the last InjectCrash
// (or since Open), for sizing deterministic crash sweeps.
func (l *Log) Writes() int64 { return l.writes }

// CheckpointLSN returns the LSN covered by the latest checkpoint.
func (l *Log) CheckpointLSN() uint64 { return l.ckptLSN }

// SizeSinceCheckpoint returns the record bytes appended since the latest
// checkpoint — the engine's auto-checkpoint trigger.
func (l *Log) SizeSinceCheckpoint() int64 { return l.sinceCkpt }
