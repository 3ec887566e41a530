package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestScannerNextPropagatesReadFault(t *testing.T) {
	s := NewStore(4)
	f := s.CreateFile("t")
	fill(t, s, f, 1000)
	s.ForceDropCaches()

	// Fail the very first accounted IO: the scanner's first page read.
	s.InjectFault(FaultPlan{FailAt: 0})
	sc := s.NewScanner(f)
	_, _, ok, err := sc.Next()
	if ok || err == nil {
		t.Fatalf("Next = ok=%v err=%v, want failing read", ok, err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}

	// The error must identify the file and page for diagnosis.
	for _, want := range []string{`"t"`, "page 0"} {
		if !contains(err.Error(), want) {
			t.Fatalf("err %q does not mention %s", err, want)
		}
	}

	// A disarmed store recovers: the same scan succeeds end to end.
	s.ClearFault()
	sc = s.NewScanner(f)
	var n int
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("scanned %d rows after recovery, want 1000", n)
	}
}

func TestScannerNextMidScanFault(t *testing.T) {
	s := NewStore(2)
	f := s.CreateFile("t")
	fill(t, s, f, 1000)
	if f.Pages() < 4 {
		t.Fatalf("need >=4 pages, got %d", f.Pages())
	}
	s.ForceDropCaches()

	// Fail the third page read: two pages of rows come back fine first.
	s.InjectFault(FaultPlan{FailAt: 2})
	sc := s.NewScanner(f)
	var got int
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			break
		}
		if !ok {
			t.Fatalf("scan hit EOF before the injected fault")
		}
		got++
	}
	perPage := PageSize / row(0).DiskWidth()
	if got != 2*perPage {
		t.Fatalf("got %d rows before fault, want %d (2 pages)", got, 2*perPage)
	}
}

func TestAppendFlushWriteFault(t *testing.T) {
	s := NewStore(4)
	f := s.CreateFile("t")
	s.InjectFault(FaultPlan{FailAt: 0})

	// Appends buffer in memory until a page fills; the flush is the write
	// that faults.
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = s.Append(f, row(int64(i)))
	}
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("append stream err = %v, want ErrInjected", err)
	}

	// Explicit Flush faults too while armed (next IO index fails as well).
	s.InjectFault(FaultPlan{FailAt: 0})
	g := s.CreateFile("u")
	if err := s.Append(g, row(1)); err != nil {
		t.Fatalf("buffered append should not fault: %v", err)
	}
	if err := s.Flush(g); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("Flush err = %v, want ErrInjected", err)
	}
}

func TestFaultPlanDeterministicSweep(t *testing.T) {
	s := NewStore(2)
	f := s.CreateFile("t")
	fill(t, s, f, 800)

	// Count the charged IOs of one cold scan.
	scan := func() error {
		sc := s.NewScanner(f)
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	s.ForceDropCaches()
	s.InjectFault(FaultPlan{FailAt: -1}) // armed counter, no trigger
	if err := scan(); err != nil {
		t.Fatal(err)
	}
	n := s.FaultIOCount()
	if n != int64(f.Pages()) {
		t.Fatalf("FaultIOCount = %d, want %d (one read per page)", n, f.Pages())
	}

	// Every index in [0, n) fails exactly once; index n never fires.
	for i := int64(0); i <= n; i++ {
		s.ForceDropCaches()
		s.InjectFault(FaultPlan{FailAt: i})
		err := scan()
		if i < n {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("FailAt=%d: err = %v, want ErrInjected", i, err)
			}
			if !contains(err.Error(), fmt.Sprintf("IO #%d", i)) {
				t.Fatalf("FailAt=%d: err %q should carry the IO index", i, err)
			}
		} else if err != nil {
			t.Fatalf("FailAt=%d (past end): err = %v, want success", i, err)
		}
	}
}

func TestFaultPlanProbabilisticSeedDeterminism(t *testing.T) {
	failedAt := func(seed int64) []int64 {
		s := NewStore(2)
		f := s.CreateFile("t")
		fill(t, s, f, 800)
		// Arm once: the rng stream and IO counter run across retries, so a
		// retried scan faces fresh draws and eventually survives.
		s.InjectFault(FaultPlan{FailAt: -1, Prob: 0.1, Seed: seed})
		var idx []int64
		for {
			s.ForceDropCaches()
			sc := s.NewScanner(f)
			var err error
			for {
				var ok bool
				_, _, ok, err = sc.Next()
				if err != nil || !ok {
					break
				}
			}
			if err == nil {
				return idx // a full scan survived
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("seed %d: err = %v", seed, err)
			}
			idx = append(idx, s.FaultIOCount()-1)
			if len(idx) > 1000 {
				t.Fatalf("seed %d: fault storm never lets a scan finish", seed)
			}
		}
	}
	a, b := failedAt(42), failedAt(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Fatalf("Prob=0.3 never fired")
	}
}

func TestFaultPlanCustomError(t *testing.T) {
	cause := errors.New("disk on fire")
	s := NewStore(2)
	f := s.CreateFile("t")
	fill(t, s, f, 200)
	s.ForceDropCaches()
	s.InjectFault(FaultPlan{FailAt: 0, Err: cause})
	_, err := s.ReadPage(f, 0)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want both ErrInjected and the custom cause", err)
	}
}

func TestPoolHitsDoNotFault(t *testing.T) {
	s := NewStore(8)
	f := s.CreateFile("t")
	fill(t, s, f, 600)
	if f.Pages() < 2 {
		t.Fatalf("need >=2 pages, got %d", f.Pages())
	}
	s.ForceDropCaches()
	if _, err := s.ReadPage(f, 0); err != nil { // warm the page
		t.Fatal(err)
	}
	s.InjectFault(FaultPlan{FailAt: 0})
	if _, err := s.ReadPage(f, 0); err != nil { // pool hit: no fault tick
		t.Fatalf("pool hit faulted: %v", err)
	}
	if s.FaultIOCount() != 0 {
		t.Fatalf("hits must not advance the fault counter, got %d", s.FaultIOCount())
	}
	if _, err := s.ReadPage(f, 1); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("first real read should fault, got %v", err)
	}
}

func TestSessionHookObservesAndAborts(t *testing.T) {
	s := NewStore(2)
	f := s.CreateFile("t")
	fill(t, s, f, 600)
	s.ForceDropCaches()

	var reads, writes, hits int
	se := s.NewSession(func(op IOOp, _ bool) error {
		switch op {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		case OpHit:
			hits++
		}
		return nil
	})
	if _, err := se.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := se.ReadPage(f, 0); err != nil {
		t.Fatal(err)
	}
	g := s.CreateFile("u")
	for i := 0; i < 400; i++ {
		if err := se.Append(g, row(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(g); err != nil {
		t.Fatal(err)
	}
	if reads != 1 || hits != 1 || writes != g.Pages() {
		t.Fatalf("hook saw reads=%d hits=%d writes=%d", reads, hits, writes)
	}
	if st := se.Stats(); st.Reads != 1 || st.Hits != 1 || int(st.Writes) != g.Pages() {
		t.Fatalf("session stats %v disagree with hook reads=%d hits=%d writes=%d", st, reads, hits, writes)
	}

	// An erroring hook aborts the access before it is charged — on the
	// global counters and on the session's own.
	stop := errors.New("budget")
	stopper := s.NewSession(func(IOOp, bool) error { return stop })
	s.ForceDropCaches()
	before, sbefore := s.Stats(), stopper.Stats()
	if _, err := stopper.ReadPage(f, 1); !errors.Is(err, stop) {
		t.Fatalf("hook error not propagated: %v", err)
	}
	if s.Stats() != before || stopper.Stats() != sbefore {
		t.Fatalf("aborted access charged IO: global %v -> %v, session %v -> %v",
			before, s.Stats(), sbefore, stopper.Stats())
	}

	// Hooks are per-session: other sessions and raw store access are
	// unaffected by the stopper.
	if _, err := se.ReadPage(f, 2); err != nil {
		t.Fatalf("sibling session blocked by foreign hook: %v", err)
	}
	if _, err := s.ReadPage(f, 3); err != nil {
		t.Fatal(err)
	}
	if reads != 2 { // the raw store read must not hit the counting hook
		t.Fatalf("store access reached a session hook: reads=%d", reads)
	}
}

func TestSessionStatsSumToGlobal(t *testing.T) {
	s := NewStore(2)
	f := s.CreateFile("t")
	fill(t, s, f, 600)
	s.ForceDropCaches()
	before := s.Stats()

	a := s.NewSession(nil)
	b := s.NewSession(nil)
	for _, pg := range []int{0, 1, 0} {
		if _, err := a.ReadPage(f, pg); err != nil {
			t.Fatal(err)
		}
	}
	for _, pg := range []int{1, 0, 1} {
		if _, err := b.ReadPage(f, pg); err != nil {
			t.Fatal(err)
		}
	}
	sum := a.Stats()
	bs := b.Stats()
	sum.Reads += bs.Reads
	sum.Writes += bs.Writes
	sum.Hits += bs.Hits
	if got := s.Stats().Sub(before); got != sum {
		t.Fatalf("global stats %v != session sum %v (a=%v b=%v)", got, sum, a.Stats(), b.Stats())
	}
}

func TestSessionHookSeesUnflushedTailRead(t *testing.T) {
	s := NewStore(4)
	f := s.CreateFile("t")
	var hits int
	stop := errors.New("canceled")
	se := s.NewSession(func(op IOOp, _ bool) error {
		if op == OpHit {
			hits++
			return stop
		}
		return nil
	})
	if err := se.Append(f, row(1)); err != nil {
		t.Fatal(err)
	}
	// The tail page lives in the write buffer — no IO — but cancellation
	// must still reach the access.
	if _, err := se.ReadPage(f, 0); !errors.Is(err, stop) {
		t.Fatalf("tail read ignored hook: %v", err)
	}
	if hits != 1 {
		t.Fatalf("hook saw %d tail accesses, want 1", hits)
	}
}

func TestTempFileCensus(t *testing.T) {
	s := NewStore(4)
	base := s.CreateFile("emp")
	fill(t, s, base, 100)
	if got := s.LiveTempFiles(); len(got) != 0 {
		t.Fatalf("base tables are not temps: %v", got)
	}
	a := s.CreateTemp("sort-run")
	b := s.CreateTemp("hj-part")
	census := s.LiveTempFiles()
	if len(census) != 2 {
		t.Fatalf("census = %v, want 2 entries", census)
	}
	// Entries are name#id and sorted.
	want := []string{fmt.Sprintf("hj-part#%d", b.ID()), fmt.Sprintf("sort-run#%d", a.ID())}
	for i := range want {
		if census[i] != want[i] {
			t.Fatalf("census = %v, want %v", census, want)
		}
	}
	if s.LiveFiles() != 3 {
		t.Fatalf("LiveFiles = %d, want 3", s.LiveFiles())
	}
	s.DropFile(a)
	s.DropFile(b)
	if got := s.LiveTempFiles(); len(got) != 0 {
		t.Fatalf("census after drop = %v, want empty", got)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
