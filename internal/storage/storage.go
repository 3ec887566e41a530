// Package storage implements the disk substrate of the engine: paged heap
// files, a sharded LRU buffer pool, and IO accounting.
//
// The paper optimizes IO cost over a disk-resident decision-support
// database. This package simulates that substrate faithfully enough for the
// cost model's trade-offs to be observable: every base-table and spill page
// that is not resident in the buffer pool charges a read, every page flushed
// to a file charges a write. "Disk" is process memory, so experiments run at
// laptop scale, but the IO counters behave like a real buffer manager's.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aggview/internal/types"
)

// PageSize is the accounted page capacity in bytes.
const PageSize = 4096

// DefaultPoolPages is the default buffer pool size in pages. It is small
// relative to the synthetic tables used by the experiments so that plan
// choices (early vs. late aggregation) have visible IO consequences.
const DefaultPoolPages = 128

// pagesPerShard is the sizing divisor for the buffer pool's latch shards:
// one shard per pagesPerShard pages of capacity, clamped to
// [1, maxPoolShards]. Pools smaller than one shard's worth of pages (the
// LRU-sensitive test configurations and the deliberately tiny experiment
// pools) resolve to a single shard and keep exact global-LRU semantics;
// larger pools trade strict global LRU for per-shard latches that stop
// concurrent queries from serializing on residency bookkeeping.
const pagesPerShard = 16

// maxPoolShards caps the shard count; past ~16 latches the contention win
// flattens while per-shard capacity (and LRU quality) keeps shrinking.
const maxPoolShards = 16

// page holds the rows of one on-disk page, one column vector each.
type page struct {
	types.Block
}

// File is a sequence of pages. Heap tables and spill runs are files.
//
// A File carries its own read-write latch guarding the page slice and the
// write buffer. Readers of different files — and readers of the same file —
// never contend on a store-wide lock; a writer excludes readers of that one
// file only. Concurrent writes to the same File are NOT coordinated beyond
// that latch — the engine serializes table writes (DDL, INSERT, LOAD)
// against all readers with its own read-write lock.
type File struct {
	id   int
	name string
	temp bool // query-temporary file (spill run, partition); see CreateTemp

	mu    sync.RWMutex
	pages []*page
	rows  int64
	bytes int64

	// write buffer: rows accumulate here until the page fills.
	cur      *page
	curBytes int
	// tail is the write buffer as last handed to a reader: its vectors'
	// headers, copied, since appends grow them in place. Readers share it
	// while cur is that page and holds that many rows.
	tail atomic.Pointer[tailView]
}

// tailView is a write buffer's vectors as of some number of rows.
type tailView struct {
	page *page
	types.Block
}

// ID returns the file's store-unique identifier.
func (f *File) ID() int { return f.id }

// Name returns the file's debug name.
func (f *File) Name() string { return f.name }

// Pages returns the number of complete pages plus any partial tail page.
func (f *File) Pages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.pagesLocked()
}

func (f *File) pagesLocked() int {
	n := len(f.pages)
	if f.cur != nil && f.cur.N > 0 {
		n++
	}
	return n
}

// Rows returns the number of rows appended to the file.
func (f *File) Rows() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rows
}

// IOStats counts accounted page IO.
type IOStats struct {
	Reads  int64 // pages fetched into the pool from "disk"
	Writes int64 // pages flushed from the pool or writer to "disk"
	Hits   int64 // pool hits (no IO charged)
}

// Sub returns the delta s - t, for measuring an operation window.
func (s IOStats) Sub(t IOStats) IOStats {
	return IOStats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes, Hits: s.Hits - t.Hits}
}

// Total returns reads+writes.
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// String renders the counters.
func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d", s.Reads, s.Writes, s.Hits)
}

// IOOp classifies one buffer-pool page access.
type IOOp int

// Page access kinds passed to an IOHook.
const (
	// OpRead is a page fetched from "disk" on a pool miss (charged).
	OpRead IOOp = iota
	// OpWrite is a page flushed to "disk" (charged).
	OpWrite
	// OpHit is a pool hit: no IO is charged, but the hook still observes it
	// so cancellation stays responsive on fully cached queries.
	OpHit
)

// IOHook observes every page access before it is performed. temp reports
// whether the access hits a query-temporary file (an operator spill run or
// partition), so observers can attribute spill IO separately from base-table
// IO. Returning a non-nil error aborts the access and propagates to the
// caller — this is how per-query governors impose deadlines and IO budgets
// at page granularity.
//
// Hooks are per-Session: each query registers its own via NewSession, so
// concurrent queries observe only their own page accesses. A hook runs on
// the goroutine performing the access, with a file latch or pool-shard latch
// held; it must be fast and must not call back into the store.
type IOHook func(op IOOp, temp bool) error

// Store owns files and the shared buffer pool.
//
// Locking contract: all Store methods are safe for concurrent use, and the
// hot page-access path takes no store-wide lock. State is decomposed:
//
//   - the file table (map of live files) sits behind a small store mutex
//     touched only by create/drop/census operations;
//   - each File's pages and write buffer sit behind that File's own
//     read-write latch;
//   - buffer-pool residency is hash-partitioned into shards, each behind its
//     own latch, so two queries faulting different pages proceed in
//     parallel;
//   - the global and per-session IO counters are atomics.
//
// A page access charges the global counters and the owning session's
// counters together — an access aborted by the fault injector or the
// session hook is counted by neither side, so the global counters remain
// the exact sum over all sessions plus unattributed access. ForceDropCaches
// runs regardless of open sessions, and sweeps the pool one shard at a
// time — a concurrent reader contends with the sweep for at most one shard
// latch, never the whole pool.
type Store struct {
	mu     sync.Mutex // guards files and nextID only
	files  map[int]*File
	nextID int

	pool *shardedPool

	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64

	fault atomic.Pointer[faultState]
}

// NewStore creates a store with a buffer pool of poolPages pages
// (DefaultPoolPages if poolPages <= 0).
func NewStore(poolPages int) *Store {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	return &Store{
		files: map[int]*File{},
		pool:  newShardedPool(poolPages),
	}
}

// PoolPages returns the buffer pool capacity in pages.
func (s *Store) PoolPages() int { return s.pool.cap }

// PoolShards returns the number of latch shards the buffer pool is split
// into. Small pools (under pagesPerShard pages) use a single shard and
// behave as one global LRU.
func (s *Store) PoolShards() int { return len(s.pool.shards) }

// Stats returns the cumulative IO counters.
func (s *Store) Stats() IOStats {
	return IOStats{Reads: s.reads.Load(), Writes: s.writes.Load(), Hits: s.hits.Load()}
}

// ForceDropCaches empties the buffer pool, so the next scan pays cold-cache
// IO, regardless of open sessions. Engine.DropCaches and the
// cold-measurement query path both use it; per-session accounting stays
// exact either way, but concurrent queries will see extra cold misses.
// Sweeping under open sessions is safe for correctness (not just
// accounting) because the pool tracks page identity only — it holds no data
// and no dirty state — so a concurrent reader can never observe corrupt
// state, only a colder cache. The sweep runs shard by shard: a reader
// faulting a page contends for at most its own shard's latch, never the
// whole pool.
func (s *Store) ForceDropCaches() { s.pool.reset() }

// Session is one query's view of the store: page accesses performed through
// it tick the session's IOHook (governance, attribution) and its private
// IOStats, in addition to the store-global counters. Each concurrent query
// holds its own session, so budgets and measurements never observe another
// query's pages. Sessions also implement Pager, the executor's page-access
// surface.
type Session struct {
	store  *Store
	hook   IOHook
	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64
}

// NewSession creates a query-scoped session with an optional IO hook (nil =
// accounting only).
func (s *Store) NewSession(hook IOHook) *Session {
	return &Session{store: s, hook: hook}
}

// Close does nothing: a session holds nothing to release. It remains only
// because bench/trace.go calls it.
func (se *Session) Close() {}

// Stats returns the page IO performed through this session so far. It is
// safe to call while the query is still running.
func (se *Session) Stats() IOStats {
	return IOStats{Reads: se.reads.Load(), Writes: se.writes.Load(), Hits: se.hits.Load()}
}

// Session page-access surface: same semantics as the Store methods, plus
// per-session hook and counters.

// Append is Store.Append attributed to this session.
func (se *Session) Append(f *File, row types.Row) error { return se.store.appendAs(se, f, row) }

// Flush is Store.Flush attributed to this session.
func (se *Session) Flush(f *File) error { return se.store.flushAs(se, f) }

// ReadPage is Store.ReadPage attributed to this session.
func (se *Session) ReadPage(f *File, n int) (types.Block, error) {
	return se.store.readPageAs(se, f, n)
}

// NewScanner starts a scan whose page reads are attributed to this session.
func (se *Session) NewScanner(f *File) *Scanner {
	return &Scanner{store: se.store, sess: se, file: f, page: -1}
}

// CreateTemp allocates a query-temporary file (no IO is charged).
func (se *Session) CreateTemp(name string) *File { return se.store.CreateTemp(name) }

// DropFile releases a file (no IO is charged).
func (se *Session) DropFile(f *File) { se.store.DropFile(f) }

// Pager is the page-access surface shared by the raw *Store (global,
// unattributed accounting) and a query-scoped *Session (per-query hook and
// counters layered on top). The executor runs against a Pager, so the same
// operators serve governed engine queries and bare harness runs.
type Pager interface {
	Append(f *File, row types.Row) error
	Flush(f *File) error
	ReadPage(f *File, n int) (types.Block, error)
	NewScanner(f *File) *Scanner
	CreateTemp(name string) *File
	DropFile(f *File)
}

var (
	_ Pager = (*Store)(nil)
	_ Pager = (*Session)(nil)
)

// charge accounts one page access on behalf of a session (nil for
// unattributed store-level access). Real IOs (OpRead/OpWrite) pass through
// fault injection first — the simulated disk error — then the session's
// hook (cancellation, budgets, attribution), then the atomic counters:
// global and per-session together, so an aborted access is counted by
// neither side and the global counters remain the exact sum over all
// sessions plus unattributed access. Pool hits skip fault injection and
// charging but still reach the hook.
func (s *Store) charge(op IOOp, f *File, se *Session) error {
	if op != OpHit {
		if fs := s.fault.Load(); fs != nil {
			if err := fs.tick(); err != nil {
				return err
			}
		}
	}
	if se != nil && se.hook != nil {
		if err := se.hook(op, f != nil && f.temp); err != nil {
			return err
		}
	}
	switch op {
	case OpRead:
		s.reads.Add(1)
		if se != nil {
			se.reads.Add(1)
		}
	case OpWrite:
		s.writes.Add(1)
		if se != nil {
			se.writes.Add(1)
		}
	case OpHit:
		s.hits.Add(1)
		if se != nil {
			se.hits.Add(1)
		}
	}
	return nil
}

// CreateFile allocates a new empty file.
func (s *Store) CreateFile(name string) *File { return s.create(name, false) }

// CreateTemp allocates a query-temporary file (a spill run or partition).
// Temp files appear in the LiveTempFiles census: a robust executor drops
// every one of them by the time a query ends, successful or not.
func (s *Store) CreateTemp(name string) *File { return s.create(name, true) }

func (s *Store) create(name string, temp bool) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	f := &File{id: s.nextID, name: name, temp: temp}
	s.files[f.id] = f
	return f
}

// LiveTempFiles returns the names of query-temporary files still live, in
// sorted order. A non-empty census after a query — even a failed one — is a
// spill-file leak.
func (s *Store) LiveTempFiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, f := range s.files {
		if f.temp {
			out = append(out, fmt.Sprintf("%s#%d", f.name, f.id))
		}
	}
	sort.Strings(out)
	return out
}

// DropFile releases a file and evicts its pages from the pool.
func (s *Store) DropFile(f *File) {
	s.pool.evictFile(f.id)
	s.mu.Lock()
	delete(s.files, f.id)
	s.mu.Unlock()
}

// CloneFile returns a structure-shared copy-on-write clone of f for the
// catalog's versioned write batches. The clone keeps the file's identity
// (same id, so buffer-pool residency keyed by (file, page) carries over —
// flushed pages of a published revision are immutable, so shared prefixes
// stay byte-identical across revisions) and shares the flushed pages by
// slice-header copy; only the unflushed write buffer is deep-copied, since
// appends mutate it in place. The clone is NOT registered with the store:
// the original stays the live file until the writer publishes the clone
// with AdoptFile, or abandons it (see EvictFilePages for the pool hygiene a
// discard needs).
func (s *Store) CloneFile(f *File) *File {
	f.mu.RLock()
	defer f.mu.RUnlock()
	nf := &File{
		id:       f.id,
		name:     f.name,
		temp:     f.temp,
		pages:    append([]*page(nil), f.pages...),
		rows:     f.rows,
		bytes:    f.bytes,
		curBytes: f.curBytes,
	}
	if f.cur != nil {
		nf.cur = &page{Block: f.cur.Clone()}
	}
	return nf
}

// AdoptFile installs f as the live file for its id, replacing the revision
// registered there (if any). The catalog calls this when publishing a write
// batch: the working clone becomes the current revision, while readers
// holding the previous revision keep scanning their own File object — the
// registry is only consulted by create/drop/census operations, never by the
// page-access path.
func (s *Store) AdoptFile(f *File) {
	s.mu.Lock()
	s.files[f.id] = f
	s.mu.Unlock()
}

// EvictFilePages removes any buffer-pool residency for the file id. A
// discarded write batch must call this for every cloned file it touched:
// pages the abandoned revision faulted in would otherwise stay "resident"
// and could alias a different page later flushed at the same index by the
// next revision — a pure accounting hazard (the pool holds identity, not
// data), but one that would silently skew measured IO.
func (s *Store) EvictFilePages(id int) { s.pool.evictFile(id) }

// Append adds a row to the file's write buffer, flushing full pages to
// "disk" (charging one write per flushed page). The row's values are
// copied into the page's column vectors, so the caller may reuse the row.
// Every row of a page has the arity of its first; a row of another arity is
// refused. A non-nil error (injected fault, tripped budget, cancellation)
// means the row was not appended.
func (s *Store) Append(f *File, row types.Row) error { return s.appendAs(nil, f, row) }

func (s *Store) appendAs(se *Session, f *File, row types.Row) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := row.DiskWidth()
	if f.cur == nil {
		f.cur = &page{}
	}
	if f.curBytes > 0 && f.curBytes+w > PageSize {
		if err := s.flushLocked(f, se); err != nil {
			return err
		}
	}
	if err := f.cur.AppendRow(row); err != nil {
		return fmt.Errorf("file %q: %w", f.name, err)
	}
	f.curBytes += w
	f.rows++
	f.bytes += int64(w)
	return nil
}

// tailBlock returns the write buffer's vectors as they are now; the caller
// holds f.mu for reading. The buffer's vectors grow in place, so a reader
// gets copies of their headers: the last copy made, while no row has been
// appended since, or a new one.
func (f *File) tailBlock() types.Block {
	if tv := f.tail.Load(); tv != nil && tv.page == f.cur && tv.N == f.cur.N {
		return tv.Block
	}
	tv := &tailView{page: f.cur, Block: types.Block{N: f.cur.N, Cols: append([]types.Vector(nil), f.cur.Cols...)}}
	f.tail.Store(tv)
	return tv.Block
}

// Flush forces the partial tail page, if any, to disk.
func (s *Store) Flush(f *File) error { return s.flushAs(nil, f) }

func (s *Store) flushAs(se *Session, f *File) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cur != nil && f.cur.N > 0 {
		return s.flushLocked(f, se)
	}
	return nil
}

// flushLocked flushes the write buffer; the caller holds f.mu.
func (s *Store) flushLocked(f *File, se *Session) error {
	if err := s.charge(OpWrite, f, se); err != nil {
		return fmt.Errorf("file %q: write: %w", f.name, err)
	}
	f.pages = append(f.pages, f.cur)
	f.cur = &page{}
	f.curBytes = 0
	return nil
}

// ReadPage fetches page n of the file through the buffer pool, charging a
// read on a miss. The returned vectors alias the page and must not be
// modified; a flushed page never changes.
func (s *Store) ReadPage(f *File, n int) (types.Block, error) { return s.readPageAs(nil, f, n) }

func (s *Store) readPageAs(se *Session, f *File, n int) (types.Block, error) {
	f.mu.RLock()
	flushed := len(f.pages)
	if n >= flushed {
		if n == flushed && f.cur != nil && f.cur.N > 0 {
			rows := f.tailBlock()
			f.mu.RUnlock()
			// The unflushed tail page lives in the writer's memory: no IO is
			// charged, but the hook still observes the access so cancellation
			// reaches queries running out of the write buffer.
			if se != nil && se.hook != nil {
				if err := se.hook(OpHit, f.temp); err != nil {
					return types.Block{}, fmt.Errorf("file %q: read page %d: %w", f.name, n, err)
				}
			}
			return rows, nil
		}
		pages := f.pagesLocked()
		f.mu.RUnlock()
		return types.Block{}, fmt.Errorf("file %q: page %d out of range (%d pages)", f.name, n, pages)
	}
	rows := f.pages[n].Block
	f.mu.RUnlock()

	sh := s.pool.shardFor(f.id, n)
	sh.mu.Lock()
	if sh.lru.touch(f.id, n) {
		sh.mu.Unlock()
		if err := s.charge(OpHit, f, se); err != nil {
			return types.Block{}, fmt.Errorf("file %q: read page %d: %w", f.name, n, err)
		}
		return rows, nil
	}
	// Miss: charge while holding the shard latch, so an access aborted by
	// the fault injector or the session hook never becomes resident, and two
	// racing readers of the same page charge one read plus one hit rather
	// than two reads.
	if err := s.charge(OpRead, f, se); err != nil {
		sh.mu.Unlock()
		return types.Block{}, fmt.Errorf("file %q: read page %d: %w", f.name, n, err)
	}
	sh.lru.insert(f.id, n)
	sh.mu.Unlock()
	return rows, nil
}

// Scanner reads a file page by page through the buffer pool, each page
// read, and its IO charged, once per scan. A scanner opened through a
// Session attributes its page reads to that session.
type Scanner struct {
	store *Store
	sess  *Session
	file  *File
	page  int   // the page last read; -1 before the first
	rows  int   // its rows
	rid   int64 // the rowid of its first row
}

// NewScanner starts a scan of f with unattributed (store-global) IO.
func (s *Store) NewScanner(f *File) *Scanner {
	return &Scanner{store: s, file: f, page: -1}
}

// NextPage returns the next page's column vectors and the rowid of its
// first row, or ok=false at end of file. The vectors alias the page and
// must not be modified.
func (sc *Scanner) NextPage() (page types.Block, rid int64, ok bool, err error) {
	if sc.page+1 >= sc.file.Pages() {
		return types.Block{}, 0, false, nil
	}
	page, err = sc.store.readPageAs(sc.sess, sc.file, sc.page+1)
	if err != nil {
		return types.Block{}, 0, false, err
	}
	sc.page++
	sc.rid += int64(sc.rows)
	sc.rows = page.N
	return page, sc.rid, true, nil
}

// shardedPool hash-partitions buffer-pool residency into independently
// latched LRU shards. The capacity is split across shards (remainder pages
// go to the low shards), so total residency equals the configured pool size
// exactly. Page identity hashes to a shard by (file, page), mixing both so
// sequential pages of one file spread across shards instead of convoying on
// one latch.
type shardedPool struct {
	cap    int
	shards []*poolShard
}

type poolShard struct {
	mu  sync.Mutex
	lru bufferPool
}

func newShardedPool(capPages int) *shardedPool {
	n := capPages / pagesPerShard
	if n < 1 {
		n = 1
	}
	if n > maxPoolShards {
		n = maxPoolShards
	}
	p := &shardedPool{cap: capPages, shards: make([]*poolShard, n)}
	base, rem := capPages/n, capPages%n
	for i := range p.shards {
		c := base
		if i < rem {
			c++
		}
		p.shards[i] = &poolShard{lru: bufferPool{cap: c, list: map[pageKey]*lruNode{}}}
	}
	return p
}

// shardIndex maps a page identity to its shard.
func (p *shardedPool) shardIndex(file, page int) int {
	if len(p.shards) == 1 {
		return 0
	}
	h := uint64(uint32(file))<<32 | uint64(uint32(page))
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(len(p.shards)))
}

func (p *shardedPool) shardFor(file, page int) *poolShard {
	return p.shards[p.shardIndex(file, page)]
}

// reset empties every shard, one latch at a time (per-shard sweep).
func (p *shardedPool) reset() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.lru.reset()
		sh.mu.Unlock()
	}
}

// evictFile removes every resident page of the file, one shard at a time.
func (p *shardedPool) evictFile(file int) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.lru.evictFile(file)
		sh.mu.Unlock()
	}
}

// bufferPool is an LRU cache of page identities. It tracks only residency:
// page contents live in the owning File, mirroring a cache simulator. It is
// not self-locking — each instance is one shard's state, guarded by the
// shard latch.
type bufferPool struct {
	cap   int
	list  map[pageKey]*lruNode
	head  *lruNode // most recently used
	tail  *lruNode // least recently used
	count int
}

type pageKey struct {
	file int
	page int
}

type lruNode struct {
	key        pageKey
	prev, next *lruNode
}

func (p *bufferPool) reset() {
	p.list = map[pageKey]*lruNode{}
	p.head, p.tail, p.count = nil, nil, 0
}

// touch reports whether the page is resident, promoting it to MRU.
func (p *bufferPool) touch(file, page int) bool {
	n, ok := p.list[pageKey{file, page}]
	if !ok {
		return false
	}
	p.unlink(n)
	p.pushFront(n)
	return true
}

// insert makes the page resident, evicting the LRU page if full.
func (p *bufferPool) insert(file, page int) {
	k := pageKey{file, page}
	if _, ok := p.list[k]; ok {
		return
	}
	if p.count >= p.cap {
		lru := p.tail
		p.unlink(lru)
		delete(p.list, lru.key)
		p.count--
	}
	n := &lruNode{key: k}
	p.list[k] = n
	p.pushFront(n)
	p.count++
}

func (p *bufferPool) evictFile(file int) {
	for k, n := range p.list {
		if k.file == file {
			p.unlink(n)
			delete(p.list, k)
			p.count--
		}
	}
}

func (p *bufferPool) pushFront(n *lruNode) {
	n.prev = nil
	n.next = p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *bufferPool) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// SnapshotFile returns the file's exact physical layout: the vectors of
// every flushed page, in page order, and of the unflushed write buffer.
// The checkpoint writer persists this layout so that a recovered engine
// reproduces the original file page for page — identical Pages() counts,
// identical scan IO, identical cost estimates. The access is raw: it
// bypasses the buffer pool and charges no IO (a checkpoint must not perturb
// in-flight measurements or evict a query's working set). The vectors
// alias the file's pages and must not be modified.
func (s *Store) SnapshotFile(f *File) (pages []types.Block, tail types.Block) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	pages = make([]types.Block, len(f.pages))
	for i, p := range f.pages {
		pages[i] = p.Block
	}
	if f.cur != nil && f.cur.N > 0 {
		tail = f.tailBlock()
	}
	return pages, tail
}

// RestoreFile replaces the file's contents with a previously snapshotted
// layout: pages become the flushed pages (in order), tail, copied, the
// unflushed write buffer. Row counts and byte totals are recomputed; the
// pool is purged of any stale pages of this file; no IO is charged.
// Recovery uses this to rebuild heap files with the exact page boundaries
// the crashed engine had — Append would repack rows and merge explicitly
// flushed partial pages.
func (s *Store) RestoreFile(f *File, pages []types.Block, tail types.Block) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s.pool.evictFile(f.id)
	f.pages, f.rows, f.bytes = make([]*page, len(pages)), 0, 0
	for i := range pages {
		f.pages[i] = &page{Block: pages[i]}
		f.rows += int64(pages[i].N)
		f.bytes += int64(pages[i].DiskWidth(nil))
	}
	f.cur, f.curBytes = nil, 0
	if tail.N > 0 {
		f.cur, f.curBytes = &page{Block: tail.Clone()}, tail.DiskWidth(nil)
		f.rows += int64(tail.N)
		f.bytes += int64(f.curBytes)
	}
}
