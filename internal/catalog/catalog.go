// Package catalog manages table and view metadata plus the optimizer
// statistics the cost model consumes.
//
// The catalog is immutably versioned. All metadata and heap state lives in
// a Snapshot — an immutable value readers pin with Catalog.Snapshot() and
// use lock-free for as long as they like. Writers open a private working
// snapshot with BeginWrite, mutate copy-on-write clones of the tables they
// touch, and either Publish (atomically install the working snapshot as
// the new head) or Discard (drop it without a trace). Only table objects
// actually written are cloned; untouched tables, views and matviews are
// structure-shared between consecutive snapshots, so a publish costs a few
// map clones plus one File clone per dirty table, not a copy of the data.
//
// Concurrency contract: any number of goroutines may call Snapshot() and
// read through the returned snapshots concurrently with one writer. The
// mutation API (BeginWrite/Publish/Discard and every Create*/Drop*/Insert/
// Analyze) must be externally serialized — the engine's writer gate does
// this. Mutation methods called outside an open write batch wrap
// themselves in one (begin, mutate, publish-or-discard), so standalone
// catalog users keep the old one-call-per-operation behavior.
//
// Views are stored as SQL text and expanded by the binder; keeping the
// catalog free of parsed representations avoids a dependency cycle with the
// SQL front end.
package catalog

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"

	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// ColStats holds per-column statistics gathered by Analyze.
type ColStats struct {
	NDV      int64       // number of distinct values
	Min, Max types.Value // value range (NULL when the column is empty)
}

// TableStats holds per-table statistics.
type TableStats struct {
	Rows  int64
	Pages int
	Cols  map[string]ColStats // keyed by column name
}

// Table is a base relation: schema, constraints, heap file and statistics.
// A Table reachable from a published Snapshot is immutable; writers mutate
// private clones that Publish swaps in wholesale.
type Table struct {
	Name        string
	Schema      schema.Schema // column IDs carry Rel = table name
	PrimaryKey  []string      // column names; empty means no declared key
	ForeignKeys []schema.ForeignKey
	File        *storage.File
	Stats       TableStats
}

// clone returns a writable copy sharing all immutable structure. The heap
// file is cloned copy-on-write (flushed pages shared, unflushed tail
// copied); Stats is replaced wholesale by Analyze, so sharing the Cols map
// until then is safe.
func (t *Table) clone(store *storage.Store) *Table {
	nt := *t
	nt.File = store.CloneFile(t.File)
	return &nt
}

// View is a named query with an optional explicit column list, stored as
// SQL text to be parsed at bind time.
type View struct {
	Name string
	Cols []string // optional explicit output column names
	SQL  string   // the defining SELECT statement
}

// MatView is a materialized aggregate view: the defining SELECT is kept as
// SQL text (parsed at use, like View), the materialized partial-aggregate
// rows live in a regular base table named Backing, and BaseTables lists the
// tables the definition reads so INSERT maintenance can find dependents.
type MatView struct {
	Name       string
	SQL        string   // the defining SELECT statement
	Backing    string   // name of the backing table holding partial rows
	BaseTables []string // base tables the definition reads, sorted
}

// Logger observes catalog mutations, one call per logical operation the
// user performed. The durable engine installs a recording implementation
// per write batch; a nil logger (the default) makes every hook a no-op.
//
// A hook fires after the in-memory mutation succeeded. If the hook returns
// an error the catalog state is ahead of the log; the caller must treat
// the catalog as failed. The logger is manipulated only by the single
// admitted writer, which serializes all mutations.
type Logger interface {
	CreateTable(name string, cols []schema.Column, primaryKey []string, fks []schema.ForeignKey) error
	CreateView(name string, cols []string, sql string) error
	CreateMatView(name, sql, backing string, baseTables []string) error
	DropTable(name string) error
	DropMatView(name string) error
	Insert(table string, row types.Row) error
	Analyze(table string) error
}

// Reader is the read-only catalog surface the binder, optimizer and
// matview rewriter consume. Both *Snapshot (a pinned version) and *Catalog
// (whatever version is current — working batch if one is open, else head)
// implement it, so read-side code is agnostic about which it was handed.
type Reader interface {
	Table(name string) (*Table, bool)
	View(name string) (*View, bool)
	MatView(name string) (*MatView, bool)
	TableNames() []string
	ViewNames() []string
	MatViewNames() []string
	MatViewsOn(table string) []*MatView
	Store() *storage.Store
	Version() int64
}

// Snapshot is one immutable catalog version. Everything reachable from a
// published snapshot — the maps, the Table objects, their heap files'
// flushed pages — is frozen; readers use it without locks for arbitrarily
// long, concurrently with writers publishing newer versions.
type Snapshot struct {
	version  int64
	store    *storage.Store
	tables   map[string]*Table
	views    map[string]*View
	matviews map[string]*MatView
}

// Version returns the monotonic schema/stats version this snapshot
// represents. It starts at zero and increases on every CreateTable/
// CreateView/DropTable/Insert/Analyze.
func (s *Snapshot) Version() int64 { return s.version }

// Store returns the backing store.
func (s *Snapshot) Store() *storage.Store { return s.store }

// Table resolves a base table by name.
func (s *Snapshot) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// View resolves a view by name.
func (s *Snapshot) View(name string) (*View, bool) {
	v, ok := s.views[strings.ToLower(name)]
	return v, ok
}

// MatView resolves a materialized view by name.
func (s *Snapshot) MatView(name string) (*MatView, bool) {
	mv, ok := s.matviews[strings.ToLower(name)]
	return mv, ok
}

// TableNames returns all base table names, sorted.
func (s *Snapshot) TableNames() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ViewNames returns all view names, sorted.
func (s *Snapshot) ViewNames() []string {
	out := make([]string, 0, len(s.views))
	for n := range s.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MatViewNames returns all materialized view names, sorted.
func (s *Snapshot) MatViewNames() []string {
	out := make([]string, 0, len(s.matviews))
	for n := range s.matviews {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MatViewsOn returns the materialized views whose definition reads the
// named base table, sorted by view name. INSERT maintenance iterates this.
func (s *Snapshot) MatViewsOn(table string) []*MatView {
	lname := strings.ToLower(table)
	var out []*MatView
	for _, n := range s.MatViewNames() {
		mv := s.matviews[n]
		for _, b := range mv.BaseTables {
			if b == lname {
				out = append(out, mv)
				break
			}
		}
	}
	return out
}

// Catalog is the metadata root: it owns the published head snapshot and
// the machinery for building the next one.
type Catalog struct {
	store *storage.Store
	// head is the latest published snapshot; Snapshot() loads it lock-free.
	head atomic.Pointer[Snapshot]

	// Write-batch state, non-nil only between BeginWrite and
	// Publish/Discard. Touched only by the single admitted writer.
	work    *Snapshot         // the version under construction
	dirty   map[string]*Table // tables cloned (or created) this batch
	created []*storage.File   // heap files created this batch
	drops   []*storage.File   // heap files to drop at Publish

	// logger, when set, receives every mutation.
	logger Logger
}

// New creates an empty catalog over the given store and publishes its
// empty version-zero snapshot.
func New(store *storage.Store) *Catalog {
	c := &Catalog{store: store}
	c.head.Store(&Snapshot{
		store:    store,
		tables:   map[string]*Table{},
		views:    map[string]*View{},
		matviews: map[string]*MatView{},
	})
	return c
}

// Store returns the backing store.
func (c *Catalog) Store() *storage.Store { return c.store }

// SetLogger installs (or, with nil, removes) the mutation logger. The
// durable engine installs a fresh recorder per write batch, so recovery
// replay and discarded batches are never re-logged.
func (c *Catalog) SetLogger(l Logger) { c.logger = l }

// Snapshot returns the latest published snapshot. Safe to call from any
// goroutine; the result never changes under the caller.
func (c *Catalog) Snapshot() *Snapshot { return c.head.Load() }

// WorkingSnapshot returns the open write batch's private snapshot, or the
// published head when no batch is open. A transaction's own statements
// read through this so they see their uncommitted writes.
func (c *Catalog) WorkingSnapshot() *Snapshot { return c.view() }

// Writing reports whether a write batch is open.
func (c *Catalog) Writing() bool { return c.work != nil }

// view is the catalog's own resolution snapshot: the working version
// inside a batch, the head otherwise. Must only be used by the writer
// goroutine or when the catalog is quiescent; concurrent readers pin
// Snapshot() instead.
func (c *Catalog) view() *Snapshot {
	if c.work != nil {
		return c.work
	}
	return c.head.Load()
}

// BeginWrite opens a write batch: a private snapshot seeded from head that
// subsequent mutations build on. Panics if a batch is already open — the
// caller (the engine's writer gate) must serialize writers.
func (c *Catalog) BeginWrite() {
	if c.work != nil {
		panic("catalog: BeginWrite inside an open write batch")
	}
	h := c.head.Load()
	c.work = &Snapshot{
		version:  h.version,
		store:    c.store,
		tables:   maps.Clone(h.tables),
		views:    maps.Clone(h.views),
		matviews: maps.Clone(h.matviews),
	}
	c.dirty = map[string]*Table{}
}

// Publish atomically installs the working snapshot as the new head and
// returns it. Cloned heap files are adopted into the store (replacing
// their originals under the same id, so buffer-pool residency carries
// over) and files belonging to dropped tables are released. Existing
// pinned snapshots are unaffected: they keep reading the superseded File
// objects, whose flushed pages are immutable.
func (c *Catalog) Publish() *Snapshot {
	if c.work == nil {
		panic("catalog: Publish without BeginWrite")
	}
	for name, t := range c.dirty {
		if c.work.tables[name] == t {
			c.store.AdoptFile(t.File)
		}
	}
	for _, f := range c.drops {
		c.store.DropFile(f)
	}
	w := c.work
	c.work, c.dirty, c.created, c.drops = nil, nil, nil, nil
	c.head.Store(w)
	return w
}

// Discard abandons the working snapshot. Files created this batch are
// dropped; buffer-pool pages the batch's own reads may have cached for
// cloned files are evicted, since a later batch could flush different
// pages at the same (file, page) coordinates. That includes a table the
// batch wrote to, read and then dropped (a merged view's old backing
// table): dropping took it out of dirty, so drops is swept as well.
func (c *Catalog) Discard() {
	if c.work == nil {
		panic("catalog: Discard without BeginWrite")
	}
	for _, t := range c.dirty {
		c.store.EvictFilePages(t.File.ID())
	}
	for _, f := range c.drops {
		c.store.EvictFilePages(f.ID())
	}
	for _, f := range c.created {
		c.store.DropFile(f)
	}
	c.work, c.dirty, c.created, c.drops = nil, nil, nil, nil
}

// beginAuto opens a batch if none is open, reporting whether it did. Every
// public mutation is bracketed by beginAuto/endAuto so standalone catalog
// users (no engine, no gate) keep one-operation-one-version semantics.
func (c *Catalog) beginAuto() bool {
	if c.work != nil {
		return false
	}
	c.BeginWrite()
	return true
}

func (c *Catalog) endAuto(own bool, err error) {
	if !own {
		return
	}
	if err != nil {
		c.Discard()
		return
	}
	c.Publish()
}

// writable resolves the batch-private clone of the named table, cloning it
// on first touch. Returns nil if the table does not exist in the working
// snapshot.
func (c *Catalog) writable(name string) *Table {
	t, ok := c.work.tables[name]
	if !ok {
		return nil
	}
	if d, ok := c.dirty[name]; ok && d == t {
		return t
	}
	nt := t.clone(c.store)
	c.dirty[name] = nt
	c.work.tables[name] = nt
	return nt
}

// RestoreVersion pins the version counter, used at the end of recovery so
// a reopened engine continues the crashed engine's persisted version
// sequence exactly (replay's own bumps can undercount when some mutations
// were batched into one record).
func (c *Catalog) RestoreVersion(v int64) {
	if c.work != nil {
		c.work.version = v
		return
	}
	h := c.head.Load()
	n := *h
	n.version = v
	c.head.Store(&n)
}

// Version returns the current schema/stats version: the working batch's
// when one is open, the head's otherwise. Writer-side use only; readers
// take Snapshot().Version() so the version and the state it describes are
// one consistent pin.
func (c *Catalog) Version() int64 { return c.view().version }

// bump advances the working version after a mutation.
func (c *Catalog) bump() { c.work.version++ }

// CreateTable registers a new base table. Column IDs in cols must either
// carry Rel equal to the table name or be unqualified (they are qualified
// automatically).
func (c *Catalog) CreateTable(name string, cols []schema.Column, primaryKey []string, fks []schema.ForeignKey) (_ *Table, err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	lname := strings.ToLower(name)
	if _, ok := c.work.tables[lname]; ok {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	if _, ok := c.work.views[lname]; ok {
		return nil, fmt.Errorf("view %q already exists", name)
	}
	if _, ok := c.work.matviews[lname]; ok {
		return nil, fmt.Errorf("materialized view %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %q must have at least one column", name)
	}
	s := make(schema.Schema, len(cols))
	seen := map[string]bool{}
	for i, col := range cols {
		cn := strings.ToLower(col.ID.Name)
		if seen[cn] {
			return nil, fmt.Errorf("table %q: duplicate column %q", name, col.ID.Name)
		}
		seen[cn] = true
		s[i] = schema.Column{ID: schema.ColID{Rel: lname, Name: cn}, Type: col.Type}
	}
	for i, k := range primaryKey {
		primaryKey[i] = strings.ToLower(k)
		if !seen[primaryKey[i]] {
			return nil, fmt.Errorf("table %q: key column %q not in schema", name, k)
		}
	}
	for _, fk := range fks {
		for _, col := range fk.Cols {
			if !seen[strings.ToLower(col)] {
				return nil, fmt.Errorf("table %q: foreign key column %q not in schema", name, col)
			}
		}
	}
	t := &Table{
		Name:        lname,
		Schema:      s,
		PrimaryKey:  primaryKey,
		ForeignKeys: fks,
		File:        c.store.CreateFile(lname),
		Stats:       TableStats{Cols: map[string]ColStats{}},
	}
	c.created = append(c.created, t.File)
	c.dirty[lname] = t // brand new: already private, no clone needed
	c.work.tables[lname] = t
	c.bump()
	if l := c.logger; l != nil {
		if err := l.CreateTable(t.Name, t.Schema, t.PrimaryKey, t.ForeignKeys); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CreateView registers a named view.
func (c *Catalog) CreateView(name string, cols []string, sql string) (_ *View, err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	lname := strings.ToLower(name)
	if _, ok := c.work.tables[lname]; ok {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	if _, ok := c.work.views[lname]; ok {
		return nil, fmt.Errorf("view %q already exists", name)
	}
	if _, ok := c.work.matviews[lname]; ok {
		return nil, fmt.Errorf("materialized view %q already exists", name)
	}
	lcols := make([]string, len(cols))
	for i, col := range cols {
		lcols[i] = strings.ToLower(col)
	}
	v := &View{Name: lname, Cols: lcols, SQL: sql}
	c.work.views[lname] = v
	c.bump()
	if l := c.logger; l != nil {
		if err := l.CreateView(v.Name, v.Cols, v.SQL); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// CreateMatView registers a materialized view. The backing table must
// already exist (the engine creates and populates it first, so recovery
// replay re-creates the rows before the view object references them).
func (c *Catalog) CreateMatView(name, sql, backing string, baseTables []string) (_ *MatView, err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	lname := strings.ToLower(name)
	if _, ok := c.work.tables[lname]; ok {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	if _, ok := c.work.views[lname]; ok {
		return nil, fmt.Errorf("view %q already exists", name)
	}
	if _, ok := c.work.matviews[lname]; ok {
		return nil, fmt.Errorf("materialized view %q already exists", name)
	}
	lbacking := strings.ToLower(backing)
	if _, ok := c.work.tables[lbacking]; !ok {
		return nil, fmt.Errorf("materialized view %q: backing table %q does not exist", name, backing)
	}
	base := make([]string, len(baseTables))
	for i, b := range baseTables {
		base[i] = strings.ToLower(b)
	}
	sort.Strings(base)
	mv := &MatView{Name: lname, SQL: sql, Backing: lbacking, BaseTables: base}
	c.work.matviews[lname] = mv
	c.bump()
	if l := c.logger; l != nil {
		if err := l.CreateMatView(mv.Name, mv.SQL, mv.Backing, mv.BaseTables); err != nil {
			return nil, err
		}
	}
	return mv, nil
}

// DropMatView removes a materialized view and its backing table. The
// backing heap file is released when the batch publishes; a discarded
// batch leaves it untouched.
func (c *Catalog) DropMatView(name string) (err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	lname := strings.ToLower(name)
	mv, ok := c.work.matviews[lname]
	if !ok {
		return fmt.Errorf("materialized view %q does not exist", name)
	}
	if t, ok := c.work.tables[mv.Backing]; ok {
		c.drops = append(c.drops, t.File)
		delete(c.work.tables, mv.Backing)
		delete(c.dirty, mv.Backing)
	}
	delete(c.work.matviews, lname)
	c.bump()
	if l := c.logger; l != nil {
		if err := l.DropMatView(lname); err != nil {
			return err
		}
	}
	return nil
}

// DropTable removes a table. Its heap file is released when the batch
// publishes; a discarded batch leaves it untouched.
func (c *Catalog) DropTable(name string) (err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	lname := strings.ToLower(name)
	t, ok := c.work.tables[lname]
	if !ok {
		return fmt.Errorf("table %q does not exist", name)
	}
	for _, mv := range c.work.matviews {
		if mv.Backing == lname {
			return fmt.Errorf("table %q backs materialized view %q; drop the view instead", name, mv.Name)
		}
		for _, b := range mv.BaseTables {
			if b == lname {
				return fmt.Errorf("table %q is read by materialized view %q; drop the view first", name, mv.Name)
			}
		}
	}
	c.drops = append(c.drops, t.File)
	delete(c.work.tables, lname)
	delete(c.dirty, lname)
	c.bump()
	if l := c.logger; l != nil {
		if err := l.DropTable(lname); err != nil {
			return err
		}
	}
	return nil
}

// Table resolves a base table by name: in the working snapshot inside a
// write batch, in the published head otherwise.
func (c *Catalog) Table(name string) (*Table, bool) { return c.view().Table(name) }

// View resolves a view by name.
func (c *Catalog) View(name string) (*View, bool) { return c.view().View(name) }

// MatView resolves a materialized view by name.
func (c *Catalog) MatView(name string) (*MatView, bool) { return c.view().MatView(name) }

// MatViewNames returns all materialized view names, sorted.
func (c *Catalog) MatViewNames() []string { return c.view().MatViewNames() }

// MatViewsOn returns the materialized views whose definition reads the
// named base table, sorted by view name.
func (c *Catalog) MatViewsOn(table string) []*MatView { return c.view().MatViewsOn(table) }

// TableNames returns all base table names, sorted.
func (c *Catalog) TableNames() []string { return c.view().TableNames() }

// ViewNames returns all view names, sorted.
func (c *Catalog) ViewNames() []string { return c.view().ViewNames() }

// Insert appends a row to the table, checking arity and kinds. The write
// lands in the batch-private clone of the table; t itself (possibly a
// shared snapshot object) is only read.
func (c *Catalog) Insert(t *Table, row types.Row) (err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	w := c.writable(t.Name)
	if w == nil {
		return fmt.Errorf("table %q does not exist", t.Name)
	}
	if len(row) != len(w.Schema) {
		return fmt.Errorf("table %q: expected %d values, got %d", w.Name, len(w.Schema), len(row))
	}
	for i, v := range row {
		// NULL is storable in any column (the conference paper assumes
		// NULL-free data; the full version [CS96] and this engine do not).
		if v.IsNull() {
			continue
		}
		want := w.Schema[i].Type
		if v.K == want {
			continue
		}
		// Allow int literals into float columns.
		if want == types.KindFloat && v.K == types.KindInt {
			row[i] = types.NewFloat(v.Float())
			continue
		}
		return fmt.Errorf("table %q column %q: cannot store %s into %s",
			w.Name, w.Schema[i].ID.Name, v.K, want)
	}
	c.bump()
	if err := c.store.Append(w.File, row); err != nil {
		return err
	}
	// Logged after the coercion above: the logged row is byte-for-byte what
	// the heap stores, so replay needs no re-coercion.
	if l := c.logger; l != nil {
		if err := l.Insert(w.Name, row); err != nil {
			return err
		}
	}
	return nil
}

// FlushTable flushes the table's partial tail page (into the batch-private
// clone; published snapshots never change).
func (c *Catalog) FlushTable(t *Table) (err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	w := c.writable(t.Name)
	if w == nil {
		return fmt.Errorf("table %q does not exist", t.Name)
	}
	return c.store.Flush(w.File)
}

// Analyze scans the table and recomputes its statistics.
func (c *Catalog) Analyze(t *Table) (err error) {
	own := c.beginAuto()
	defer func() { c.endAuto(own, err) }()
	w := c.writable(t.Name)
	if w == nil {
		return fmt.Errorf("table %q does not exist", t.Name)
	}
	if err := c.store.Flush(w.File); err != nil {
		return err
	}
	stats := TableStats{Cols: map[string]ColStats{}}
	distinct := make([]map[string]struct{}, len(w.Schema))
	mins := make([]types.Value, len(w.Schema))
	maxs := make([]types.Value, len(w.Schema))
	for i := range distinct {
		distinct[i] = map[string]struct{}{}
	}

	sc := c.store.NewScanner(w.File)
	var buf []byte
	for {
		row, _, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		stats.Rows++
		for i, v := range row {
			// NDV and min/max describe the non-NULL values only: NULLs
			// would otherwise pin Min to NULL (types.Compare orders NULL
			// first) and skew 1/NDV equality selectivities.
			if v.IsNull() {
				continue
			}
			buf = types.AppendKey(buf[:0], v)
			distinct[i][string(buf)] = struct{}{}
			if mins[i].IsNull() || types.Compare(v, mins[i]) < 0 {
				mins[i] = v
			}
			if maxs[i].IsNull() || types.Compare(v, maxs[i]) > 0 {
				maxs[i] = v
			}
		}
	}
	for i, col := range w.Schema {
		stats.Cols[col.ID.Name] = ColStats{
			NDV: int64(len(distinct[i])),
			Min: mins[i],
			Max: maxs[i],
		}
	}
	stats.Pages = w.File.Pages()
	w.Stats = stats
	c.bump()
	if l := c.logger; l != nil {
		if err := l.Analyze(w.Name); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the table's primary key as a schema.Key qualified with the
// given relation alias, or ok=false if no key is declared.
func (t *Table) Key(alias string) (schema.Key, bool) {
	if len(t.PrimaryKey) == 0 {
		return nil, false
	}
	k := make(schema.Key, len(t.PrimaryKey))
	for i, cn := range t.PrimaryKey {
		k[i] = schema.ColID{Rel: alias, Name: cn}
	}
	return k, true
}

// ColStat returns statistics for the named column, with ok=false if
// Analyze has not produced them.
func (t *Table) ColStat(name string) (ColStats, bool) {
	cs, ok := t.Stats.Cols[strings.ToLower(name)]
	return cs, ok
}
