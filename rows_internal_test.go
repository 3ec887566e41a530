package aggview

import (
	"errors"
	"testing"
	"time"
)

// TestFinishClampsNegativeExecuteDur reproduces the phase-accounting bug
// where a query that finishes before execution starts (bind error, governor
// trip during optimization) computed executeDur = total - optimize < 0 and
// published a negative phase time. finish must clamp it at zero.
func TestFinishClampsNegativeExecuteDur(t *testing.T) {
	e := Open(Config{})
	qr := &queryRun{engine: e, src: "clamp-test"}
	end := qr.col.Time("optimize")
	time.Sleep(2 * time.Millisecond)
	end()
	// start after the optimize span ended: total ~0, optimize ~2ms, so the
	// unclamped subtraction would go negative.
	qr.start = time.Now()
	qr.finish(nil)

	if qr.executeDur != 0 {
		t.Errorf("executeDur = %v, want 0 (clamped)", qr.executeDur)
	}
	if qr.optimizeDur <= 0 {
		t.Errorf("optimizeDur = %v, want > 0", qr.optimizeDur)
	}
	if m := e.Metrics(); m.ExecuteTime < 0 || m.Queries != 1 {
		t.Errorf("metrics after finish: %+v, want ExecuteTime >= 0 and Queries == 1", m)
	}
}

// TestFinishIdempotent: repeated and error-bearing finish calls after the
// first are no-ops — one metrics publication, no failure recorded, and the
// fixed durations do not move.
func TestFinishIdempotent(t *testing.T) {
	e := Open(Config{})
	qr := &queryRun{engine: e, src: "idem-test", start: time.Now()}
	qr.finish(nil)
	total := qr.totalDur
	qr.finish(errors.New("late error must be ignored"))
	qr.finish(nil)

	if qr.totalDur != total {
		t.Errorf("totalDur moved on repeated finish: %v -> %v", total, qr.totalDur)
	}
	if !qr.done.Load() {
		t.Error("done flag not set after finish")
	}
	m := e.Metrics()
	if m.Queries != 1 {
		t.Errorf("metrics Queries = %d after triple finish, want 1", m.Queries)
	}
	if m.Failures != 0 {
		t.Errorf("metrics Failures = %d, want 0 (late error ignored)", m.Failures)
	}
}
