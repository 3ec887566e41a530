// Package obs is the engine's observability layer: per-query trace spans,
// per-operator runtime metrics, and an engine-wide cumulative metrics
// registry with a pluggable sink for external exporters.
//
// The paper's claims are cost-based — the pull-up/push-down plans the
// enumerator picks are supposed to win on *measured* page IO — so the
// executor needs per-operator accounting precise enough that summing the
// operator counters reproduces the query's own IO counters exactly.
// The Collector achieves that with an attribution stack: the executor
// pushes an operator's stats on entry to Open/Next/Close and pops on exit,
// and the query's session IO hook charges each page access to whatever
// operator frame is innermost at that moment. A Collector belongs to
// exactly one query, whose execution is single-threaded (Volcano pull), so
// a plain stack is exact with no locking: every charged IO is attributed
// to exactly one operator, and IO performed outside any operator frame
// lands in the Unattributed bucket (asserted zero by the tests).
// Concurrent queries each carry their own Collector and storage session,
// so their attributions never mix; only the Registry, which aggregates
// finished rollups across queries, is synchronized.
package obs

import (
	"fmt"
	"time"
)

// IOKind classifies one page access for attribution. It mirrors the storage
// layer's IOOp without importing it, keeping obs dependency-free.
type IOKind int

// Page access kinds.
const (
	// IORead is a page fetched from "disk" on a pool miss (charged).
	IORead IOKind = iota
	// IOWrite is a page flushed to "disk" (charged).
	IOWrite
	// IOHit is a buffer-pool hit (observed, not charged).
	IOHit
)

// OpStats holds one operator's runtime metrics. Page counters are
// self-only (exclusive of children, thanks to the attribution stack);
// wall-clock counters are inclusive of children, like a conventional
// EXPLAIN ANALYZE.
type OpStats struct {
	// Label is the operator's Describe() line.
	Label string
	// RowsOut counts rows the operator returned from Next.
	RowsOut int64
	// NextCalls counts Next invocations (RowsOut+1 on a drained operator).
	NextCalls int64
	// OpenNS, NextNS and CloseNS are inclusive wall times in nanoseconds.
	OpenNS, NextNS, CloseNS int64
	// Reads, Writes and Hits are self-attributed page accesses. Reads and
	// Writes include the spill subsets below.
	Reads, Writes, Hits int64
	// SpillReads and SpillWrites are the subsets of Reads/Writes that hit
	// query-temporary files (operator spill runs and partitions).
	SpillReads, SpillWrites int64
}

// PagesTotal returns the operator's charged page IOs (reads + writes).
func (s *OpStats) PagesTotal() int64 { return s.Reads + s.Writes }

// TimeNS returns the operator's inclusive wall time across the iterator
// lifecycle.
func (s *OpStats) TimeNS() int64 { return s.OpenNS + s.NextNS + s.CloseNS }

// Add accumulates another operator's counters (labels are kept).
func (s *OpStats) Add(o *OpStats) {
	s.RowsOut += o.RowsOut
	s.NextCalls += o.NextCalls
	s.OpenNS += o.OpenNS
	s.NextNS += o.NextNS
	s.CloseNS += o.CloseNS
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Hits += o.Hits
	s.SpillReads += o.SpillReads
	s.SpillWrites += o.SpillWrites
}

// String renders the actual-side annotation used by EXPLAIN ANALYZE.
func (s *OpStats) String() string {
	out := fmt.Sprintf("rows=%d reads=%d writes=%d hits=%d", s.RowsOut, s.Reads, s.Writes, s.Hits)
	if s.SpillReads > 0 || s.SpillWrites > 0 {
		out += fmt.Sprintf(" spill-w=%d spill-r=%d", s.SpillWrites, s.SpillReads)
	}
	out += fmt.Sprintf(" time=%s", time.Duration(s.TimeNS()).Round(time.Microsecond))
	return out
}

// Span is one timed phase of a query (parse, bind, optimize, execute).
type Span struct {
	Name string
	Dur  time.Duration
}

// OpInfo names one operator of a compiled plan: the plan node its metrics
// are looked up by and its label. A compiled plan numbers its operators
// from 0 and keeps one OpInfo per number, shared by all its runs.
type OpInfo struct {
	Node  any
	Label string
}

// Collector gathers one query's runtime observations: per-operator metrics
// in one slot per operator of the plan, numbered as the plan numbers them,
// the innermost operator frame, and phase spans. It is not safe for
// concurrent use; a query executes on one goroutine. The zero Collector is
// ready to use.
type Collector struct {
	info  []OpInfo  // per operator: its node and label (Start)
	ops   []OpStats // per operator: its metrics
	cur   *OpStats  // the innermost operator frame; nil = none
	spans []Span

	// Unattributed accumulates page accesses observed while no operator
	// frame was active. The executor wraps every operator, so a non-zero
	// bucket indicates an accounting hole; tests assert it stays empty.
	Unattributed OpStats
}

// Start gives the collector one empty slot per operator of a plan about to
// run, labelled: operator i's metrics go to Slot(i). ops is read, never
// written, so every run of a plan may share it.
func (c *Collector) Start(ops []OpInfo) {
	c.info, c.ops = ops, make([]OpStats, len(ops))
	for i := range ops {
		c.ops[i].Label = ops[i].Label
	}
}

// Slot returns operator i's metrics.
func (c *Collector) Slot(i int) *OpStats { return &c.ops[i] }

// Op returns the metrics recorded for a plan node, or nil.
func (c *Collector) Op(node any) *OpStats {
	for i := range c.info {
		if c.info[i].Node == node {
			return &c.ops[i]
		}
	}
	return nil
}

// Ops returns every operator's metrics, in operator order.
func (c *Collector) Ops() []OpStats { return c.ops }

// Enter makes st the innermost operator frame: subsequent IO is
// attributed to it until the matching Leave. It returns the frame it
// replaces, which Leave restores, so frames nest on the caller's stack.
func (c *Collector) Enter(st *OpStats) (prev *OpStats) {
	prev, c.cur = c.cur, st
	return prev
}

// Leave ends the innermost operator frame, restoring prev, what the
// matching Enter returned.
func (c *Collector) Leave(prev *OpStats) { c.cur = prev }

// RecordIO charges one page access to the innermost operator frame (or the
// Unattributed bucket). temp marks accesses to query-temporary files —
// operator spill runs and partitions.
func (c *Collector) RecordIO(kind IOKind, temp bool) {
	st := c.cur
	if st == nil {
		st = &c.Unattributed
	}
	switch kind {
	case IORead:
		st.Reads++
		if temp {
			st.SpillReads++
		}
	case IOWrite:
		st.Writes++
		if temp {
			st.SpillWrites++
		}
	case IOHit:
		st.Hits++
	}
}

// Totals sums every operator's counters plus the unattributed bucket.
func (c *Collector) Totals() OpStats {
	var t OpStats
	t.Label = "total"
	for i := range c.ops {
		t.Add(&c.ops[i])
	}
	t.Add(&c.Unattributed)
	return t
}

// Time starts a named span and returns the function that ends it. Typical
// use: defer c.Time("optimize")().
func (c *Collector) Time(name string) func() {
	start := time.Now()
	return func() {
		c.spans = append(c.spans, Span{Name: name, Dur: time.Since(start)})
	}
}

// SpanDur returns the duration of the first completed span with the given
// name (zero when absent).
func (c *Collector) SpanDur(name string) time.Duration {
	for _, s := range c.spans {
		if s.Name == name {
			return s.Dur
		}
	}
	return 0
}
