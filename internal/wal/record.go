package wal

import (
	"encoding/binary"
	"fmt"

	"aggview/internal/types"
)

// Kind tags one logical mutation record. Every catalog- or data-changing
// operation the engine performs maps to exactly one kind; recovery replays
// them in LSN order on top of the latest checkpoint.
type Kind uint8

// Record kinds. Values are part of the on-disk format: never renumber.
const (
	KindCreateTable Kind = 1 + iota
	KindCreateView
	// KindCreateIndex is reserved: logs written while the engine had
	// CREATE INDEX hold it, and decoding one fails with a fatal error.
	KindCreateIndex
	KindDropTable
	KindInsert
	KindAnalyze
	KindCreateMatView
	KindDropMatView
	// Transaction frames. A multi-record commit group is bracketed by
	// TxnBegin and TxnCommit; recovery applies a group only when its commit
	// frame is durable and discards a group whose tail is torn. Bare records
	// (no enclosing frame) commit individually, exactly as in the
	// pre-transaction log format — so old logs replay unchanged.
	KindTxnBegin
	KindTxnCommit
	// KindTxnAbort is reserved: the engine never logged one (a rolled-back
	// transaction logs nothing), and decoding one fails with a fatal error.
	KindTxnAbort
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCreateTable:
		return "create-table"
	case KindCreateView:
		return "create-view"
	case KindCreateIndex:
		return "create-index"
	case KindDropTable:
		return "drop-table"
	case KindInsert:
		return "insert"
	case KindAnalyze:
		return "analyze"
	case KindCreateMatView:
		return "create-matview"
	case KindDropMatView:
		return "drop-matview"
	case KindTxnBegin:
		return "txn-begin"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one typed mutation payload.
type Record interface {
	Kind() Kind
	encode(dst []byte) []byte
}

// ColumnDef is a table column in a CreateTable record (the catalog's
// schema.Column minus the relation qualifier, which is the table name).
type ColumnDef struct {
	Name string
	Type types.Kind
}

// ForeignKeyDef mirrors schema.ForeignKey for the log format.
type ForeignKeyDef struct {
	Cols     []string
	RefTable string
	RefCols  []string
}

// CreateTable records a CREATE TABLE: name, columns, key and foreign keys.
type CreateTable struct {
	Name        string
	Cols        []ColumnDef
	PrimaryKey  []string
	ForeignKeys []ForeignKeyDef
}

// CreateView records a CREATE VIEW: the name, the optional column list and
// the defining SELECT's SQL text (views are stored as text in the catalog).
type CreateView struct {
	Name string
	Cols []string
	SQL  string
}

// DropTable records a DROP TABLE.
type DropTable struct {
	Name string
}

// Insert records a batch of rows appended to one table: one statement's
// VALUES rows, or one slice of a bulk load. Batching bounds fsyncs — a
// 60k-row load commits a handful of records, not 60k.
type Insert struct {
	Table string
	Rows  []types.Row
}

// CreateMatView records the registration of a materialized view. The
// backing table and its rows travel as the CreateTable/Insert/Analyze
// records the engine logged just before this one, so replay only needs the
// metadata here.
type CreateMatView struct {
	Name       string
	SQL        string
	Backing    string
	BaseTables []string
}

// DropMatView records a DROP MATERIALIZED VIEW (the backing table is
// dropped by the same catalog call, so one record covers both).
type DropMatView struct {
	Name string
}

// Analyze records a statistics refresh of one table. Replay recomputes from
// the replayed data, which is deterministic, so the record carries no
// statistics payload.
type Analyze struct {
	Table string
}

// TxnBegin opens a commit group: the records that follow, up to the
// matching TxnCommit, apply atomically or not at all. The ID pairs frames
// within one log positionally (the engine is single-writer, so groups never
// interleave); it is unique per process lifetime, not across reopens.
type TxnBegin struct {
	ID int64
}

// TxnCommit closes a commit group; its durability is the commit point.
type TxnCommit struct {
	ID int64
}

// Kind implementations.
func (CreateTable) Kind() Kind   { return KindCreateTable }
func (CreateView) Kind() Kind    { return KindCreateView }
func (DropTable) Kind() Kind     { return KindDropTable }
func (Insert) Kind() Kind        { return KindInsert }
func (Analyze) Kind() Kind       { return KindAnalyze }
func (CreateMatView) Kind() Kind { return KindCreateMatView }
func (DropMatView) Kind() Kind   { return KindDropMatView }
func (TxnBegin) Kind() Kind      { return KindTxnBegin }
func (TxnCommit) Kind() Kind     { return KindTxnCommit }

// Entry is one decoded log record: its sequence number, the catalog version
// the mutation produced (persisted so a recovered engine's version — and
// with it plan-cache invalidation — continues monotonically), and the
// typed payload.
type Entry struct {
	LSN     uint64
	Version int64
	Rec     Record
}

// --- payload encoding -------------------------------------------------

func putString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func putStrings(dst []byte, ss []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = putString(dst, s)
	}
	return dst
}

func getString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("wal: string length: %d bytes left", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return "", nil, fmt.Errorf("wal: string: want %d bytes, have %d", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

func getStrings(b []byte) ([]string, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("wal: string count: %d bytes left", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	var out []string
	for i := 0; i < n; i++ {
		var s string
		var err error
		s, b, err = getString(b)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, b, nil
}

func (r CreateTable) encode(dst []byte) []byte {
	dst = putString(dst, r.Name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Cols)))
	for _, c := range r.Cols {
		dst = putString(dst, c.Name)
		dst = append(dst, byte(c.Type))
	}
	dst = putStrings(dst, r.PrimaryKey)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.ForeignKeys)))
	for _, fk := range r.ForeignKeys {
		dst = putStrings(dst, fk.Cols)
		dst = putString(dst, fk.RefTable)
		dst = putStrings(dst, fk.RefCols)
	}
	return dst
}

func decodeCreateTable(b []byte) (Record, []byte, error) {
	var r CreateTable
	var err error
	if r.Name, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("wal: create-table column count missing")
	}
	nc := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < nc; i++ {
		var c ColumnDef
		if c.Name, b, err = getString(b); err != nil {
			return nil, nil, err
		}
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("wal: create-table column type missing")
		}
		c.Type = types.Kind(b[0])
		b = b[1:]
		r.Cols = append(r.Cols, c)
	}
	if r.PrimaryKey, b, err = getStrings(b); err != nil {
		return nil, nil, err
	}
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("wal: create-table fk count missing")
	}
	nf := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < nf; i++ {
		var fk ForeignKeyDef
		if fk.Cols, b, err = getStrings(b); err != nil {
			return nil, nil, err
		}
		if fk.RefTable, b, err = getString(b); err != nil {
			return nil, nil, err
		}
		if fk.RefCols, b, err = getStrings(b); err != nil {
			return nil, nil, err
		}
		r.ForeignKeys = append(r.ForeignKeys, fk)
	}
	return r, b, nil
}

func (r CreateView) encode(dst []byte) []byte {
	dst = putString(dst, r.Name)
	dst = putStrings(dst, r.Cols)
	return putString(dst, r.SQL)
}

func decodeCreateView(b []byte) (Record, []byte, error) {
	var r CreateView
	var err error
	if r.Name, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	if r.Cols, b, err = getStrings(b); err != nil {
		return nil, nil, err
	}
	if r.SQL, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	return r, b, nil
}

func (r DropTable) encode(dst []byte) []byte { return putString(dst, r.Name) }

func (r Insert) encode(dst []byte) []byte {
	dst = putString(dst, r.Table)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Rows)))
	for _, row := range r.Rows {
		dst = types.EncodeRow(dst, row)
	}
	return dst
}

func decodeInsert(b []byte) (Record, []byte, error) {
	var r Insert
	var err error
	if r.Table, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("wal: insert row count missing")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Every encoded row is at least its 4-byte arity: a larger count is
	// damage, and trusting it would size the slice from garbage.
	if n > len(b)/4 {
		return nil, nil, fmt.Errorf("wal: insert: %d rows in %d bytes", n, len(b))
	}
	r.Rows = make([]types.Row, n)
	for i := 0; i < n; i++ {
		if r.Rows[i], b, err = types.DecodeRow(b); err != nil {
			return nil, nil, err
		}
	}
	return r, b, nil
}

func (r CreateMatView) encode(dst []byte) []byte {
	dst = putString(dst, r.Name)
	dst = putString(dst, r.SQL)
	dst = putString(dst, r.Backing)
	return putStrings(dst, r.BaseTables)
}

func decodeCreateMatView(b []byte) (Record, []byte, error) {
	var r CreateMatView
	var err error
	if r.Name, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	if r.SQL, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	if r.Backing, b, err = getString(b); err != nil {
		return nil, nil, err
	}
	if r.BaseTables, b, err = getStrings(b); err != nil {
		return nil, nil, err
	}
	return r, b, nil
}

func (r DropMatView) encode(dst []byte) []byte { return putString(dst, r.Name) }

func (r Analyze) encode(dst []byte) []byte { return putString(dst, r.Table) }

func (r TxnBegin) encode(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
}

func (r TxnCommit) encode(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
}

// decodeName decodes the body of the records that carry one name: DROP
// TABLE, DROP MATERIALIZED VIEW and ANALYZE.
func decodeName(b []byte, mk func(string) Record) (Record, []byte, error) {
	name, b, err := getString(b)
	if err != nil {
		return nil, nil, err
	}
	return mk(name), b, nil
}

// decodeTxnID decodes the body of a transaction frame.
func decodeTxnID(b []byte, kind Kind, mk func(int64) Record) (Record, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("wal: %s id: %d bytes", kind, len(b))
	}
	return mk(int64(binary.LittleEndian.Uint64(b))), b[8:], nil
}

// encodeRecord renders a record payload: kind tag, catalog version, body.
// The LSN is prepended by the log when the record is framed.
func encodeRecord(version int64, rec Record) []byte {
	dst := []byte{byte(rec.Kind())}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(version))
	return rec.encode(dst)
}

// decodeRecord parses a record payload (sans LSN). The payload has already
// passed its CRC, so a malformed body — trailing bytes included — is
// corruption or a format skew: a fatal recovery error, not a torn tail.
// Every payload it accepts re-encodes to the same bytes.
func decodeRecord(b []byte) (int64, Record, error) {
	if len(b) < 9 {
		return 0, nil, fmt.Errorf("wal: record header: %d bytes", len(b))
	}
	kind := Kind(b[0])
	version := int64(binary.LittleEndian.Uint64(b[1:9]))
	body := b[9:]
	var rec Record
	var err error
	switch kind {
	case KindCreateTable:
		rec, body, err = decodeCreateTable(body)
	case KindCreateView:
		rec, body, err = decodeCreateView(body)
	case KindCreateIndex:
		return 0, nil, fmt.Errorf("wal: %s record: CREATE INDEX was removed from the engine, so a log holding one cannot be replayed", kind)
	case KindDropTable:
		rec, body, err = decodeName(body, func(n string) Record { return DropTable{Name: n} })
	case KindInsert:
		rec, body, err = decodeInsert(body)
	case KindAnalyze:
		rec, body, err = decodeName(body, func(n string) Record { return Analyze{Table: n} })
	case KindCreateMatView:
		rec, body, err = decodeCreateMatView(body)
	case KindDropMatView:
		rec, body, err = decodeName(body, func(n string) Record { return DropMatView{Name: n} })
	case KindTxnBegin:
		rec, body, err = decodeTxnID(body, kind, func(id int64) Record { return TxnBegin{ID: id} })
	case KindTxnCommit:
		rec, body, err = decodeTxnID(body, kind, func(id int64) Record { return TxnCommit{ID: id} })
	case KindTxnAbort:
		return 0, nil, fmt.Errorf("wal: %s record: the engine never writes one, so a log holding one cannot be replayed", kind)
	default:
		err = fmt.Errorf("wal: unknown record kind %d", uint8(kind))
	}
	if err != nil {
		return 0, nil, err
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("wal: %s record: %d trailing bytes", kind, len(body))
	}
	return version, rec, nil
}
