package govern

import (
	"context"
	"errors"
	"testing"
)

func TestNilGovernorIsUnlimited(t *testing.T) {
	var g *Governor
	for i := 0; i < 100; i++ {
		if n, err := g.TickRows(1); n != 1 || err != nil || g.TickIO(true) != nil || g.TickPlan() != nil || g.Err() != nil {
			t.Fatalf("nil governor must never trip")
		}
	}
	g.ResetPlans() // must not panic
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	g := New(nil, Limits{})
	for i := 0; i < 1000; i++ {
		if _, err := g.TickRows(1); err != nil || g.TickIO(true) != nil || g.TickPlan() != nil {
			t.Fatalf("zero limits tripped at tick %d", i)
		}
	}
	if g.ioPages.Load() != 1000 || g.rowsOut.Load() != 1000 {
		t.Fatalf("counters = %d/%d, want 1000/1000", g.ioPages.Load(), g.rowsOut.Load())
	}
}

func TestIOBudgetTripsPastLimit(t *testing.T) {
	g := New(nil, Limits{MaxIOPages: 3})
	for i := 0; i < 3; i++ {
		if err := g.TickIO(true); err != nil {
			t.Fatalf("tick %d within budget: %v", i, err)
		}
	}
	if err := g.TickIO(true); !errors.Is(err, ErrIOBudget) {
		t.Fatalf("err = %v, want ErrIOBudget", err)
	}
	// Uncharged ticks (pool hits) never consume budget.
	g2 := New(nil, Limits{MaxIOPages: 1})
	for i := 0; i < 10; i++ {
		if err := g2.TickIO(false); err != nil {
			t.Fatalf("uncharged tick tripped: %v", err)
		}
	}
	if g2.ioPages.Load() != 0 {
		t.Fatalf("uncharged ticks counted: %d", g2.ioPages.Load())
	}
}

func TestRowLimitTripsPastLimit(t *testing.T) {
	g := New(nil, Limits{MaxRowsOut: 2})
	for i := 0; i < 2; i++ {
		if n, err := g.TickRows(1); n != 1 || err != nil {
			t.Fatalf("row %d within limit tripped: allowed %d, %v", i, n, err)
		}
	}
	if n, err := g.TickRows(1); n != 0 || !errors.Is(err, ErrRowLimit) {
		t.Fatalf("allowed %d, err = %v, want 0 and ErrRowLimit", n, err)
	}
}

func TestPlanBudgetAndReset(t *testing.T) {
	g := New(nil, Limits{OptimizerBudget: 2})
	if g.TickPlan() != nil || g.TickPlan() != nil {
		t.Fatalf("plans within budget tripped")
	}
	if err := g.TickPlan(); !errors.Is(err, ErrOptimizerBudget) {
		t.Fatalf("err = %v, want ErrOptimizerBudget", err)
	}
	// The ladder grants each rung a fresh budget.
	g.ResetPlans()
	if g.TickPlan() != nil || g.TickPlan() != nil {
		t.Fatalf("budget not restored after ResetPlans")
	}
	if err := g.TickPlan(); !errors.Is(err, ErrOptimizerBudget) {
		t.Fatalf("err after reset = %v, want ErrOptimizerBudget", err)
	}
}

func TestCancellationWinsOverBudgets(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{MaxIOPages: 1, MaxRowsOut: 1, OptimizerBudget: 1})
	if g.Err() != nil {
		t.Fatalf("live context reported done")
	}
	cancel()
	_, rowErr := g.TickRows(1)
	for _, err := range []error{g.Err(), g.TickIO(true), g.TickIO(false), rowErr, g.TickPlan()} {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	}
	// Canceled ticks must not consume budget either.
	if g.ioPages.Load() != 0 || g.rowsOut.Load() != 0 {
		t.Fatalf("canceled ticks were charged: io=%d rows=%d", g.ioPages.Load(), g.rowsOut.Load())
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	sentinels := []error{ErrCanceled, ErrRowLimit, ErrIOBudget, ErrOptimizerBudget}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken for %v vs %v", a, b)
			}
		}
	}
}
