package obs

import (
	"sync"
	"testing"
)

func TestAttributionStack(t *testing.T) {
	c := new(Collector)
	type node struct{ name string }
	parent, child := &node{"p"}, &node{"c"}
	c.Start([]OpInfo{{Node: parent, Label: "parent"}, {Node: child, Label: "child"}})
	ps, cs := c.Slot(0), c.Slot(1)

	// IO with no frame goes to the unattributed bucket.
	c.RecordIO(IORead, false)
	if c.Unattributed.Reads != 1 {
		t.Fatalf("unattributed reads = %d, want 1", c.Unattributed.Reads)
	}

	outer := c.Enter(ps)
	c.RecordIO(IOWrite, true) // parent's own spill write
	inner := c.Enter(cs)
	c.RecordIO(IORead, false) // child's base-table read
	c.RecordIO(IOHit, false)
	c.Leave(inner)
	c.RecordIO(IORead, true) // back in the parent frame: spill read
	c.Leave(outer)
	c.RecordIO(IOHit, false) // no frame again

	if c.Unattributed.Reads != 1 || c.Unattributed.Hits != 1 {
		t.Fatalf("unattributed stats = %+v", c.Unattributed)
	}
	if ps.Writes != 1 || ps.SpillWrites != 1 || ps.Reads != 1 || ps.SpillReads != 1 {
		t.Fatalf("parent stats = %+v", *ps)
	}
	if cs.Reads != 1 || cs.SpillReads != 0 || cs.Hits != 1 {
		t.Fatalf("child stats = %+v", *cs)
	}

	tot := c.Totals()
	if tot.Reads != 3 || tot.Writes != 1 || tot.Hits != 2 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestStartNumbersOperators: Start gives each operator of the plan one
// labelled slot, in the plan's numbering; Op finds a slot by its node, and
// a second Start begins from empty slots.
func TestStartNumbersOperators(t *testing.T) {
	c := new(Collector)
	a, b := &struct{ x int }{1}, &struct{ x int }{2}
	ops := []OpInfo{{Node: a, Label: "a"}, {Node: b, Label: "b"}}
	c.Start(ops)
	if len(c.Ops()) != 2 || c.Ops()[0].Label != "a" || c.Ops()[1].Label != "b" {
		t.Fatalf("ops = %+v", c.Ops())
	}
	if c.Op(a) != c.Slot(0) || c.Op(b) != c.Slot(1) || c.Op(&struct{ x int }{1}) != nil {
		t.Fatal("Op does not find the slots by node")
	}
	prev := c.Enter(c.Slot(1))
	c.RecordIO(IORead, false)
	c.Leave(prev)
	c.Start(ops)
	if c.Slot(1).Reads != 0 || c.Slot(1).Label != "b" {
		t.Fatalf("a second Start kept %+v", *c.Slot(1))
	}
}

func TestSpans(t *testing.T) {
	c := new(Collector)
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
