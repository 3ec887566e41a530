package storage

import (
	"sync"
	"testing"
	"time"
)

// TestShardSizing pins the shard-count policy: pools at or below one
// shard's worth of pages keep a single latch (and with it exact global-LRU
// semantics, which several IO-count tests depend on), larger pools split,
// and the split never exceeds maxPoolShards. Capacity must be conserved
// exactly across the split.
func TestShardSizing(t *testing.T) {
	cases := []struct {
		pages, shards int
	}{
		{1, 1}, {2, 1}, {8, 1}, {15, 1}, {16, 1}, {31, 1},
		{32, 2}, {64, 4}, {128, 8}, {256, 16}, {1024, 16},
	}
	for _, c := range cases {
		s := NewStore(c.pages)
		if got := s.PoolShards(); got != c.shards {
			t.Errorf("PoolPages=%d: shards = %d, want %d", c.pages, got, c.shards)
		}
		total := 0
		for _, sh := range s.pool.shards {
			if sh.lru.cap < 1 {
				t.Errorf("PoolPages=%d: shard with cap %d", c.pages, sh.lru.cap)
			}
			total += sh.lru.cap
		}
		if total != c.pages {
			t.Errorf("PoolPages=%d: shard caps sum to %d", c.pages, total)
		}
	}
}

// TestShardSpread checks the page→shard hash actually spreads a sequential
// file across shards; a degenerate hash would re-serialize every scan on
// one latch.
func TestShardSpread(t *testing.T) {
	s := NewStore(256) // 16 shards
	seen := map[int]int{}
	for page := 0; page < 256; page++ {
		seen[s.pool.shardIndex(1, page)]++
	}
	if len(seen) < 8 {
		t.Fatalf("256 sequential pages landed on only %d of 16 shards", len(seen))
	}
}

// TestDropCachesDoesNotBlockReaders is the regression test for the
// per-shard sweep: a full-pool drop must never hold every shard latch at
// once, so a concurrent reader faulting a page on a different shard makes
// progress even while the sweep is stalled. The test wedges the sweep by
// holding shard 0's latch directly, starts ForceDropCaches (which blocks on
// shard 0, the first in sweep order), and asserts a read that hashes to a
// different shard still completes.
func TestDropCachesDoesNotBlockReaders(t *testing.T) {
	s := NewStore(64) // 4 shards
	if s.PoolShards() < 2 {
		t.Fatalf("need a multi-shard pool, got %d shards", s.PoolShards())
	}
	f := s.CreateFile("t")
	fill(t, s, f, 2000) // dozens of pages, spread across shards

	// Find a flushed page that does not hash to shard 0.
	other := -1
	for n := 0; n < f.Pages()-1; n++ {
		if s.pool.shardIndex(f.id, n) != 0 {
			other = n
			break
		}
	}
	if other < 0 {
		t.Fatal("every page hashed to shard 0; hash is degenerate")
	}

	s.pool.shards[0].mu.Lock() // wedge the sweep at its first shard
	var wg sync.WaitGroup
	wg.Add(1)
	dropDone := make(chan struct{})
	go func() {
		defer wg.Done()
		s.ForceDropCaches()
		close(dropDone)
	}()

	readDone := make(chan error, 1)
	go func() {
		_, err := s.ReadPage(f, other)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		if err != nil {
			t.Errorf("concurrent read failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("reader blocked behind a full-pool drop")
	}
	select {
	case <-dropDone:
		t.Error("ForceDropCaches finished while a shard latch was held: sweep is not per-shard")
	default:
	}
	s.pool.shards[0].mu.Unlock()
	wg.Wait()
}

// TestResetStatsDoesNotTouchPoolLatches pins that counter resets are pure
// atomics now: resetting while a shard latch is held must not block.
func TestResetStatsDoesNotTouchPoolLatches(t *testing.T) {
	s := NewStore(64)
	f := s.CreateFile("t")
	fill(t, s, f, 100)
	s.pool.shards[0].mu.Lock()
	defer s.pool.shards[0].mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.ForceResetStats()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ForceResetStats blocked on a pool shard latch")
	}
	if got := s.Stats(); got != (IOStats{}) {
		t.Fatalf("stats after reset = %v", got)
	}
}

// TestConcurrentReadersSharedStore exercises the decomposed locking under
// the race detector: many goroutines run full and partial scans of shared
// files while drops and resets run, and the global counters stay
// the sum of per-session counters plus unattributed access.
func TestConcurrentReadersSharedStore(t *testing.T) {
	s := NewStore(64)
	f := s.CreateFile("t")
	const rows = 3000
	fill(t, s, f, rows)
	s.ForceResetStats()

	const workers = 8
	var wg sync.WaitGroup
	sessStats := make([]IOStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			se := s.NewSession(nil)
			defer se.Close()
			sc := se.NewScanner(f)
			n := 0
			for {
				_, _, ok, err := sc.Next()
				if err != nil {
					t.Errorf("worker %d: scan: %v", w, err)
					return
				}
				if !ok {
					break
				}
				n++
			}
			if n != rows {
				t.Errorf("worker %d: scanned %d rows, want %d", w, n, rows)
			}
			// A second, partial scan that stops after 50 rows.
			sc = se.NewScanner(f)
			for i := 0; i < 50; i++ {
				r, _, ok, err := sc.Next()
				if err != nil || !ok {
					t.Errorf("worker %d: partial scan: ok=%v err=%v", w, ok, err)
					return
				}
				if r == nil {
					t.Errorf("worker %d: nil row", w)
				}
			}
			sessStats[w] = se.Stats()
		}(w)
	}
	// A maintenance goroutine drops caches concurrently; this perturbs
	// counters (extra cold misses) but must never corrupt or deadlock.
	stop := make(chan struct{})
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.ForceDropCaches()
			}
		}
	}()
	wg.Wait()
	close(stop)
	mwg.Wait()

	var sum IOStats
	for _, st := range sessStats {
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Hits += st.Hits
	}
	if got := s.Stats(); got != sum {
		t.Fatalf("global stats %v != sum of session stats %v", got, sum)
	}
}
