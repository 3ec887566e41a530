package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// QueryMetrics is the per-query rollup delivered to the registry (and to
// the sink, when one is installed) after every governed query execution,
// successful or not.
type QueryMetrics struct {
	// Statement is the SQL text that ran.
	Statement string
	// Mode is the optimizer mode that produced the plan (after any
	// degradation); empty when optimization itself failed.
	Mode string
	// Degraded reports that the optimizer budget forced a cheaper mode.
	Degraded bool
	// Err is the error class of a failed query ("" on success).
	Err string
	// Rows is the number of rows delivered to the caller (after ORDER BY
	// and LIMIT).
	Rows int64
	// Reads, Writes and Hits are the query's page accesses.
	Reads, Writes, Hits int64
	// SpillReads and SpillWrites are the temp-file subsets of Reads/Writes.
	SpillReads, SpillWrites int64
	// PlansConsidered is the optimizer's candidate count for this query.
	PlansConsidered int
	// PlanCache records the plan's provenance: "hit" (reused a cached
	// compiled plan), "miss" (compiled and cached), "invalidated" (a cached
	// plan was discarded because the catalog version moved, then recompiled),
	// "bypass" (the cache was not consulted or not filled: a run that needs
	// a search trace such as ad-hoc EXPLAIN ANALYZE, a read
	// of a transaction's own working state, or a plan degraded under an
	// optimizer budget). Ad-hoc and prepared statements both use the cache.
	// Empty when the query failed before planning.
	PlanCache string
	// Degradations counts optimizer-ladder fallbacks.
	Degradations int
	// Optimize (bind and plan search; zero on a plan-cache hit) and Execute
	// (from opening the operator tree to the end of the stream) are the
	// phase wall times. Total covers the whole call from the moment the
	// engine was entered, so it also holds what belongs to neither phase:
	// the cache key, the plan-cache lookup and, on a miss, the parse.
	Optimize, Execute, Total time.Duration
}

// Metrics is the engine-wide cumulative snapshot returned by
// Engine.Metrics().
type Metrics struct {
	// Queries counts governed query executions (Failures included).
	Queries int64
	// Failures counts queries that returned an error (cancellation, budget
	// violations, injected faults, internal errors).
	Failures int64
	// Rows is the total rows delivered to callers (QueryMetrics.Rows).
	Rows int64
	// PageReads, PageWrites and PageHits accumulate the per-query IO.
	PageReads, PageWrites, PageHits int64
	// SpillPageReads and SpillPageWrites are the temp-file subsets.
	SpillPageReads, SpillPageWrites int64
	// PlansConsidered accumulates optimizer search effort.
	PlansConsidered int64
	// Degradations counts optimizer-ladder fallbacks.
	Degradations int64
	// PlanCacheHits and PlanCacheMisses count plan-cache lookups by outcome;
	// PlanCacheInvalidations counts cached plans discarded at lookup because
	// the catalog version moved; PlanCacheEvictions counts LRU evictions.
	PlanCacheHits, PlanCacheMisses int64
	PlanCacheInvalidations         int64
	PlanCacheEvictions             int64
	// MatViewMerges counts committed merges of a materialized view's backing
	// table (incremental maintenance folds the table to one row per group
	// when it has doubled); MatViewRowsMerged is the rows those merges
	// removed, rows read minus rows written.
	MatViewMerges, MatViewRowsMerged int64
	// OptimizeTime and ExecuteTime accumulate phase wall times; QueryTime
	// accumulates total query wall time.
	OptimizeTime, ExecuteTime, QueryTime time.Duration
}

// Sub returns the delta m - o, for measuring a window of queries.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		Queries:                m.Queries - o.Queries,
		Failures:               m.Failures - o.Failures,
		Rows:                   m.Rows - o.Rows,
		PageReads:              m.PageReads - o.PageReads,
		PageWrites:             m.PageWrites - o.PageWrites,
		PageHits:               m.PageHits - o.PageHits,
		SpillPageReads:         m.SpillPageReads - o.SpillPageReads,
		SpillPageWrites:        m.SpillPageWrites - o.SpillPageWrites,
		PlansConsidered:        m.PlansConsidered - o.PlansConsidered,
		Degradations:           m.Degradations - o.Degradations,
		PlanCacheHits:          m.PlanCacheHits - o.PlanCacheHits,
		PlanCacheMisses:        m.PlanCacheMisses - o.PlanCacheMisses,
		PlanCacheInvalidations: m.PlanCacheInvalidations - o.PlanCacheInvalidations,
		PlanCacheEvictions:     m.PlanCacheEvictions - o.PlanCacheEvictions,
		MatViewMerges:          m.MatViewMerges - o.MatViewMerges,
		MatViewRowsMerged:      m.MatViewRowsMerged - o.MatViewRowsMerged,
		OptimizeTime:           m.OptimizeTime - o.OptimizeTime,
		ExecuteTime:            m.ExecuteTime - o.ExecuteTime,
		QueryTime:              m.QueryTime - o.QueryTime,
	}
}

// Sink receives every query's rollup as it completes. Sinks run
// synchronously on the query's goroutine; an exporter that buffers or
// ships metrics elsewhere should hand off quickly.
type Sink func(QueryMetrics)

// Registry accumulates query rollups into an engine-wide snapshot and
// forwards each rollup to the optional sink. It is safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	snap Metrics
	sink Sink

	// Writer-path counters: atomics, so a commit never waits behind the
	// queries contending for mu.
	merges, rowsMerged atomic.Int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// SetSink installs the exporter hook (nil disables it) and returns the
// previous one.
func (r *Registry) SetSink(s Sink) Sink {
	r.mu.Lock()
	prev := r.sink
	r.sink = s
	r.mu.Unlock()
	return prev
}

// Observe folds one query's rollup into the snapshot and forwards it to the
// sink.
func (r *Registry) Observe(q QueryMetrics) {
	r.mu.Lock()
	r.snap.Queries++
	if q.Err != "" {
		r.snap.Failures++
	}
	r.snap.Rows += q.Rows
	r.snap.PageReads += q.Reads
	r.snap.PageWrites += q.Writes
	r.snap.PageHits += q.Hits
	r.snap.SpillPageReads += q.SpillReads
	r.snap.SpillPageWrites += q.SpillWrites
	r.snap.PlansConsidered += int64(q.PlansConsidered)
	r.snap.Degradations += int64(q.Degradations)
	switch q.PlanCache {
	case "hit":
		r.snap.PlanCacheHits++
	case "miss":
		r.snap.PlanCacheMisses++
	case "invalidated":
		r.snap.PlanCacheMisses++
		r.snap.PlanCacheInvalidations++
	}
	r.snap.OptimizeTime += q.Optimize
	r.snap.ExecuteTime += q.Execute
	r.snap.QueryTime += q.Total
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink(q)
	}
}

// ObserveEviction counts plan-cache LRU evictions. Evictions happen at
// insert time, outside any single query's rollup, so they are reported
// directly rather than through Observe.
func (r *Registry) ObserveEviction(n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.snap.PlanCacheEvictions += int64(n)
	r.mu.Unlock()
}

// ObserveMerges counts a committed transaction's materialized-view merges
// and the rows they removed.
func (r *Registry) ObserveMerges(merges, rowsMerged int64) {
	if merges > 0 {
		r.merges.Add(merges)
		r.rowsMerged.Add(rowsMerged)
	}
}

// Snapshot returns the cumulative metrics.
func (r *Registry) Snapshot() Metrics {
	r.mu.Lock()
	m := r.snap
	r.mu.Unlock()
	m.MatViewMerges, m.MatViewRowsMerged = r.merges.Load(), r.rowsMerged.Load()
	return m
}
