package obs

import (
	"sync"
	"testing"
)

func TestAttributionStack(t *testing.T) {
	c := NewCollector()
	type node struct{ name string }
	parent, child := &node{"p"}, &node{"c"}
	ps := c.Register(parent, "parent")
	cs := c.Register(child, "child")

	// IO with no frame goes to the unattributed bucket.
	c.RecordIO(IORead, false)
	if c.Unattributed.Reads != 1 {
		t.Fatalf("unattributed reads = %d, want 1", c.Unattributed.Reads)
	}

	c.Enter(ps)
	c.RecordIO(IOWrite, true) // parent's own spill write
	c.Enter(cs)
	c.RecordIO(IORead, false) // child's base-table read
	c.RecordIO(IOHit, false)
	c.Leave()
	c.RecordIO(IORead, true) // back in the parent frame: spill read
	c.Leave()

	if ps.Writes != 1 || ps.SpillWrites != 1 || ps.Reads != 1 || ps.SpillReads != 1 {
		t.Fatalf("parent stats = %+v", *ps)
	}
	if cs.Reads != 1 || cs.SpillReads != 0 || cs.Hits != 1 {
		t.Fatalf("child stats = %+v", *cs)
	}

	tot := c.Totals()
	if tot.Reads != 3 || tot.Writes != 1 || tot.Hits != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestRegisterIsIdempotentPerNode(t *testing.T) {
	c := NewCollector()
	n := &struct{}{}
	a := c.Register(n, "x")
	b := c.Register(n, "x")
	if a != b {
		t.Fatal("Register returned two slots for one node")
	}
	if len(c.Ops()) != 1 {
		t.Fatalf("ops = %d, want 1", len(c.Ops()))
	}
}

func TestSpans(t *testing.T) {
	c := NewCollector()
	c.Time("optimize")()
	c.Time("execute")()
	if len(c.Spans()) != 2 {
		t.Fatalf("spans = %v", c.Spans())
	}
	if c.SpanDur("optimize") < 0 || c.SpanDur("missing") != 0 {
		t.Fatalf("span lookup broken: %v", c.Spans())
	}
}

func TestRegistryAccumulatesAndSinks(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var seen []QueryMetrics
	r.SetSink(func(q QueryMetrics) {
		mu.Lock()
		seen = append(seen, q)
		mu.Unlock()
	})

	r.Observe(QueryMetrics{Statement: "q1", Rows: 3, Reads: 10, Writes: 2, SpillWrites: 2, PlansConsidered: 7})
	r.Observe(QueryMetrics{Statement: "q2", Err: "canceled", Reads: 1})

	m := r.Snapshot()
	if m.Queries != 2 || m.Failures != 1 || m.Rows != 3 || m.PageReads != 11 || m.PageWrites != 2 {
		t.Fatalf("snapshot = %+v", m)
	}
	if m.SpillPageWrites != 2 || m.PlansConsidered != 7 {
		t.Fatalf("snapshot = %+v", m)
	}
	if len(seen) != 2 || seen[0].Statement != "q1" || seen[1].Err != "canceled" {
		t.Fatalf("sink saw %+v", seen)
	}

	delta := r.Snapshot().Sub(m)
	if delta.Queries != 0 || delta.PageReads != 0 {
		t.Fatalf("delta = %+v", delta)
	}

	// Writer-path counters ride in the same snapshot; a transaction that
	// merged nothing reports nothing.
	r.ObserveMerges(2, 30)
	r.ObserveMerges(0, 0)
	if delta = r.Snapshot().Sub(m); delta.MatViewMerges != 2 || delta.MatViewRowsMerged != 30 || delta.Queries != 0 {
		t.Fatalf("merge delta = %+v", delta)
	}
}

func TestOpStatsHelpers(t *testing.T) {
	s := OpStats{Reads: 3, Writes: 2, OpenNS: 10, NextNS: 20, CloseNS: 5}
	if s.PagesTotal() != 5 || s.TimeNS() != 35 {
		t.Fatalf("helpers: %+v", s)
	}
	var sum OpStats
	sum.Add(&s)
	sum.Add(&s)
	if sum.Reads != 6 || sum.TimeNS() != 70 {
		t.Fatalf("add: %+v", sum)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
