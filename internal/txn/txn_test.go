package txn

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aggview/internal/types"
	"aggview/internal/wal"
)

// TestGateAcquireCancelledWhileHeld: a waiter whose context is cancelled
// while another holder is inside gets the context error and does not hold
// the gate; a second waiter is admitted as soon as the holder releases.
func TestGateAcquireCancelledWhileHeld(t *testing.T) {
	g := NewGate()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() { cancelled <- g.Acquire(ctx) }()
	admitted := make(chan error, 1)
	go func() { admitted <- g.Acquire(context.Background()) }()

	select {
	case err := <-cancelled:
		t.Fatalf("waiter returned %v while the gate was held and its context live", err)
	case err := <-admitted:
		t.Fatalf("second writer admitted (%v) while the gate was held", err)
	case <-time.After(20 * time.Millisecond):
	}

	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	select {
	case err := <-admitted:
		t.Fatalf("live waiter admitted (%v) before Release: the cancelled waiter leaked a slot", err)
	case <-time.After(20 * time.Millisecond):
	}

	g.Release()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("waiter after Release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not admitted after Release")
	}
	g.Release()
}

// recorderUnderTest returns a recorder whose catalog version advances by one
// per mutation, as the catalog's does, plus the bump function.
func recorderUnderTest() (*Recorder, func()) {
	var version int64
	return NewRecorder(func() int64 { return version }), func() { version++ }
}

func insertN(t *testing.T, r *Recorder, bump func(), table string, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		bump()
		if err := r.Insert(table, types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// describe renders a record group as kind/table/rows/version/first-value
// strings, so order and batching are asserted in one comparison.
func describe(recs []LoggedRecord) []string {
	out := make([]string, len(recs))
	for i, lr := range recs {
		switch r := lr.Rec.(type) {
		case wal.Insert:
			out[i] = fmt.Sprintf("insert %s x%d from %d @%d", r.Table, len(r.Rows), r.Rows[0][0].I, lr.Version)
		case wal.Analyze:
			out[i] = fmt.Sprintf("analyze %s @%d", r.Table, lr.Version)
		case wal.DropTable:
			out[i] = fmt.Sprintf("drop %s @%d", r.Name, lr.Version)
		default:
			out[i] = fmt.Sprintf("%T @%d", r, lr.Version)
		}
	}
	return out
}

func assertGroup(t *testing.T, got []LoggedRecord, want ...string) {
	t.Helper()
	g := describe(got)
	if len(g) != len(want) {
		t.Fatalf("group has %d records %q, want %d %q", len(g), g, len(want), want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, g[i], want[i])
		}
	}
}

// TestRecorderFlushesAtBatchBoundary: consecutive inserts into one table
// coalesce, and the pending batch is cut exactly at batchRows rows; each
// record carries the version of its last row.
func TestRecorderFlushesAtBatchBoundary(t *testing.T) {
	r, bump := recorderUnderTest()
	insertN(t, r, bump, "t", 0, batchRows-1)
	if len(r.recs) != 0 {
		t.Fatalf("%d records flushed below the batch bound, want 0", len(r.recs))
	}
	insertN(t, r, bump, "t", batchRows-1, 1)
	if len(r.recs) != 1 || len(r.pendRows) != 0 {
		t.Fatalf("at the bound: %d flushed, %d pending; want 1 flushed, 0 pending", len(r.recs), len(r.pendRows))
	}
	insertN(t, r, bump, "t", batchRows, 3)
	assertGroup(t, r.Records(),
		fmt.Sprintf("insert t x%d from 0 @%d", batchRows, batchRows),
		fmt.Sprintf("insert t x3 from %d @%d", batchRows, batchRows+3))
}

// TestRecorderFlushesOnTableSwitchAndBeforeOtherRecords: a change of table
// and any non-insert record both cut the pending batch first, so the group
// replays in exactly the order the mutations were applied.
func TestRecorderFlushesOnTableSwitchAndBeforeOtherRecords(t *testing.T) {
	r, bump := recorderUnderTest()
	insertN(t, r, bump, "a", 0, 2) // versions 1..2
	insertN(t, r, bump, "b", 10, 1)
	insertN(t, r, bump, "a", 20, 1)
	bump()
	if err := r.Analyze("a"); err != nil {
		t.Fatal(err)
	}
	insertN(t, r, bump, "a", 30, 2)
	bump()
	if err := r.DropTable("b"); err != nil {
		t.Fatal(err)
	}
	assertGroup(t, r.Records(),
		"insert a x2 from 0 @2",
		"insert b x1 from 10 @3",
		"insert a x1 from 20 @4",
		"analyze a @5",
		"insert a x2 from 30 @7",
		"drop b @8")
}

// TestRecorderEmptyGroup: a batch that mutated nothing records nothing, so
// its commit costs no log write.
func TestRecorderEmptyGroup(t *testing.T) {
	r, _ := recorderUnderTest()
	if recs := r.Records(); len(recs) != 0 {
		t.Fatalf("fresh recorder holds %d records", len(recs))
	}
}
