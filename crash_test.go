package aggview_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aggview"
)

// Crash-recovery harness. These tests drive the durable engine's
// write-ahead log with deterministic crash injection: a workload is run
// once cleanly to size the sweep and capture the expected state after
// every acknowledged operation, then re-run once per physical log write
// with a crash (clean or torn) at exactly that write. Every crash point
// must recover — on a fresh OpenDurable of the same directory — to a state
// byte-identical to the clean run's state after the acknowledged prefix.

func openDurable(t *testing.T, dir string) *aggview.Engine {
	t.Helper()
	eng, err := aggview.OpenDurable(aggview.Config{PoolPages: 16, DataDir: dir})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return eng
}

// crashStep is one unit of the sweep workload. Each step either appends
// exactly one log record (every SQL statement below does: multi-row
// INSERTs batch into one record) or, like Checkpoint, changes no logical
// state — so the state after a crash anywhere inside step k equals the
// clean state after k completed steps.
type crashStep struct {
	name string
	run  func(e *aggview.Engine) error
}

func execStep(sql string) crashStep {
	return crashStep{name: sql, run: func(e *aggview.Engine) error {
		_, err := e.Exec(sql)
		return err
	}}
}

func mutationSteps() []crashStep {
	return []crashStep{
		execStep(`create table dept (dno int, dname varchar, primary key (dno))`),
		execStep(`create table emp (eno int, dno int, sal float, primary key (eno))`),
		execStep(`insert into dept values (1, 'eng'), (2, 'sales'), (3, 'ops')`),
		execStep(`insert into emp values (1, 1, 1000.0), (2, 1, 1100.0), (3, 2, 900.0)`),
		execStep(`insert into emp values (4, 2, 950.0)`),
		execStep(`analyze emp`),
		execStep(`create view dept_pay (dno, total) as select dno, sum(sal) from emp group by dno`),
		execStep(`create view emp_count (dno, n) as select dno, count(*) from emp group by dno`),
		execStep(`insert into emp values (5, 3, 1200.0), (6, 3, 800.0)`),
		execStep(`analyze dept`),
		execStep(`create table scratch (x int)`),
		execStep(`insert into scratch values (42)`),
		execStep(`drop table scratch`),
	}
}

// runCleanSweepBaseline runs the steps once on a fresh durable engine,
// returning the per-prefix state fingerprints (fps[k] = state after k
// steps) and the total physical log writes the workload performs.
func runCleanSweepBaseline(t *testing.T, dir string, steps []crashStep) (fps []string, writes int64) {
	t.Helper()
	eng := openDurable(t, dir)
	defer eng.Close()
	eng.InjectWALCrash(nil) // reset the write counter past Open's segment header
	fps = []string{eng.StateFingerprint()}
	for _, s := range steps {
		if err := s.run(eng); err != nil {
			t.Fatalf("clean run %q: %v", s.name, err)
		}
		fps = append(fps, eng.StateFingerprint())
	}
	return fps, eng.WALWrites()
}

// sweepCrashes re-runs the workload once per write index (clean and torn
// crashes), asserting: the crash surfaces as ErrCrashed, the engine is
// dead afterwards, and reopening recovers exactly the acknowledged prefix.
func sweepCrashes(t *testing.T, steps []crashStep, fps []string, writes int64) {
	t.Helper()
	step := int64(1)
	if testing.Short() {
		step = writes/8 + 1
	}
	for _, torn := range []bool{false, true} {
		for n := int64(0); n < writes; n += step {
			dir := t.TempDir()
			eng := openDurable(t, dir)
			eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: n, Torn: torn})

			acked := 0
			var crashErr error
			for _, s := range steps {
				if err := s.run(eng); err != nil {
					crashErr = err
					break
				}
				acked++
			}
			if crashErr == nil {
				t.Fatalf("n=%d torn=%v: workload survived the crash plan", n, torn)
			}
			if !errors.Is(crashErr, aggview.ErrCrashed) {
				t.Fatalf("n=%d torn=%v: err = %v, want wrapped ErrCrashed", n, torn, crashErr)
			}
			// The dead engine refuses everything — writes and reads alike —
			// because its memory may be ahead of its log.
			if _, err := eng.Exec(`create table dead_probe (x int)`); !errors.Is(err, aggview.ErrEngineDead) {
				t.Fatalf("n=%d torn=%v: post-crash write err = %v, want ErrEngineDead", n, torn, err)
			}
			if acked > 2 {
				if _, err := eng.Query(context.Background(), `select count(*) from dept`); !errors.Is(err, aggview.ErrEngineDead) {
					t.Fatalf("n=%d torn=%v: post-crash read err = %v, want ErrEngineDead", n, torn, err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("n=%d torn=%v: close: %v", n, torn, err)
			}

			// Recovery: the reopened engine holds exactly the acked prefix.
			rec := openDurable(t, dir)
			if got := rec.StateFingerprint(); got != fps[acked] {
				t.Fatalf("n=%d torn=%v: recovered state != clean state after %d acked steps", n, torn, acked)
			}
			// And it is fully live: it answers queries and accepts and
			// persists new mutations.
			if acked >= 4 {
				res, err := rec.Query(context.Background(), `select count(*) from emp`)
				if err != nil || res.Len() != 1 {
					t.Fatalf("n=%d torn=%v: recovered query: %v", n, torn, err)
				}
			}
			if _, err := rec.Exec(`create table post_recovery (x int)`); err != nil {
				t.Fatalf("n=%d torn=%v: recovered engine rejects mutations: %v", n, torn, err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			rec2 := openDurable(t, dir)
			if _, err := rec2.Query(context.Background(), `select count(*) from post_recovery`); err != nil {
				t.Fatalf("n=%d torn=%v: second recovery lost post-recovery table: %v", n, torn, err)
			}
			rec2.Close()
		}
	}
}

// TestCrashSweepMutations is the tentpole sweep: a DDL/insert/analyze/
// view/drop workload crashed at every log write offset, in both
// clean and torn-write modes, must always recover to exactly the
// acknowledged prefix of the clean run.
func TestCrashSweepMutations(t *testing.T) {
	steps := mutationSteps()
	cleanDir := t.TempDir()
	fps, writes := runCleanSweepBaseline(t, cleanDir, steps)
	if writes != int64(len(steps)) {
		t.Fatalf("clean run wrote %d records for %d steps; the one-record-per-step sweep premise broke", writes, len(steps))
	}
	// The cleanly-closed directory recovers to the final state too.
	verify := openDurable(t, cleanDir)
	if verify.StateFingerprint() != fps[len(steps)] {
		t.Fatal("clean reopen diverged from final state")
	}
	verify.Close()
	sweepCrashes(t, steps, fps, writes)
}

// TestCrashSweepWithCheckpoint interleaves explicit checkpoints with the
// mutations and sweeps every write — including the checkpoint's own tmp
// write, rename and segment rotation. A checkpoint changes no logical
// state, so the recovery oracle is unchanged: the acked-step prefix.
func TestCrashSweepWithCheckpoint(t *testing.T) {
	base := mutationSteps()
	ckpt := crashStep{name: "checkpoint", run: func(e *aggview.Engine) error { return e.Checkpoint() }}
	var steps []crashStep
	for i, s := range base {
		steps = append(steps, s)
		if i == 4 || i == 8 {
			steps = append(steps, ckpt)
		}
	}
	eng := openDurable(t, t.TempDir())
	eng.InjectWALCrash(nil)
	fps := []string{eng.StateFingerprint()}
	for _, s := range steps {
		if err := s.run(eng); err != nil {
			t.Fatalf("clean run %q: %v", s.name, err)
		}
		fps = append(fps, eng.StateFingerprint())
	}
	writes := eng.WALWrites()
	eng.Close()
	if writes <= int64(len(base)) {
		t.Fatalf("checkpoints added no writes (%d for %d mutations)", writes, len(base))
	}
	sweepCrashes(t, steps, fps, writes)
}

// TestBulkLoadCrashPrefix crashes at every write during a multi-record
// bulk load (LoadTPCD: table creates, batched inserts, analyzes). The
// recovered engine must always open cleanly and hold a consistent prefix:
// recovered tables are complete records, queryable, and row counts never
// exceed the clean load's.
func TestBulkLoadCrashPrefix(t *testing.T) {
	spec := aggview.DefaultTPCD()
	spec.Lineitems = 120

	cleanDir := t.TempDir()
	clean := openDurable(t, cleanDir)
	clean.InjectWALCrash(nil)
	if err := clean.LoadTPCD(spec); err != nil {
		t.Fatal(err)
	}
	writes := clean.WALWrites()
	wantTables := clean.Tables()
	wantRows := map[string]int64{}
	for _, tbl := range wantTables {
		res, err := clean.Query(context.Background(), `select count(*) from `+tbl)
		if err != nil {
			t.Fatal(err)
		}
		wantRows[tbl] = res.Rows[0][0].(int64)
	}
	clean.Close()
	if writes < 8 {
		t.Fatalf("bulk load performed only %d writes; sweep would be vacuous", writes)
	}

	step := int64(1)
	if testing.Short() {
		step = writes/8 + 1
	}
	for _, torn := range []bool{false, true} {
		for n := int64(0); n < writes; n += step {
			dir := t.TempDir()
			eng := openDurable(t, dir)
			eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: n, Torn: torn})
			err := eng.LoadTPCD(spec)
			if !errors.Is(err, aggview.ErrCrashed) {
				t.Fatalf("n=%d torn=%v: load err = %v, want wrapped ErrCrashed", n, torn, err)
			}
			eng.Close()

			rec := openDurable(t, dir)
			for _, tbl := range rec.Tables() {
				res, qerr := rec.Query(context.Background(), `select count(*) from `+tbl)
				if qerr != nil {
					t.Fatalf("n=%d torn=%v: recovered table %s unqueryable: %v", n, torn, tbl, qerr)
				}
				got := res.Rows[0][0].(int64)
				if got > wantRows[tbl] {
					t.Fatalf("n=%d torn=%v: table %s recovered %d rows, clean load has %d", n, torn, tbl, got, wantRows[tbl])
				}
			}
			// Recovery is a true prefix: re-running the load from scratch on
			// the recovered tables is not meaningful, but the engine must
			// accept further work.
			if _, err := rec.Exec(`create table after_load (x int)`); err != nil {
				t.Fatalf("n=%d torn=%v: recovered engine rejects DDL: %v", n, torn, err)
			}
			rec.Close()
		}
	}
}

// TestRecoveryEquivalenceWarehouse: a durable engine that loads the chaos
// warehouse, crashes, and recovers must be indistinguishable from (a) its
// own pre-crash state and (b) a purely in-memory engine that ran the same
// workload — same state fingerprint, and the full query suite returns
// identical results with identical per-query cold-cache IO.
func TestRecoveryEquivalenceWarehouse(t *testing.T) {
	dir := t.TempDir()
	durable := newWarehouse(t, aggview.Config{PoolPages: 8, DataDir: dir})
	preCrash := durable.StateFingerprint()

	// The in-memory reference: identical workload, no durability.
	mem := newWarehouse(t, aggview.Config{PoolPages: 8})
	if got := mem.StateFingerprint(); got != preCrash {
		t.Fatalf("durable and in-memory engines diverged before any crash")
	}

	queries := []string{
		`select p.brand, l.qty from lineitem l, part p, part_qty v
		 where l.partkey = p.partkey and v.partkey = p.partkey
		   and p.brand < 5 and l.qty < v.aqty`,
		`select v.aqty, o.value from part_qty v, order_value o, lineitem l
		 where l.partkey = v.partkey and l.orderkey = o.orderkey and l.qty > 45`,
		`select p.brand, max(v.aqty) from part p, part_qty v
		 where v.partkey = p.partkey group by p.brand having max(v.aqty) > 10`,
		`select c.nation, count(*) as n from customer c, orders o
		 where o.custkey = c.custkey group by c.nation order by n desc limit 3`,
	}

	// Crash the durable engine: arm an immediate crash and let the next
	// mutation trip it. Nothing was acknowledged, so recovery must land on
	// the pre-crash state exactly.
	durable.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: 0, Torn: true})
	if _, err := durable.Exec(`create table crash_probe (x int)`); !errors.Is(err, aggview.ErrCrashed) {
		t.Fatalf("crash trigger err = %v", err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the original config: the cost model is PoolPages-aware,
	// so equivalence only holds under identical resource budgets.
	rec, err := aggview.OpenDurable(aggview.Config{PoolPages: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.StateFingerprint(); got != preCrash {
		t.Fatal("recovered state differs from pre-crash state")
	}

	ctx := context.Background()
	for qi, q := range queries {
		mres, err := mem.Query(ctx, q, aggview.WithMode(aggview.Full), aggview.WithColdCache())
		if err != nil {
			t.Fatalf("query %d on reference: %v", qi, err)
		}
		rres, err := rec.Query(ctx, q, aggview.WithMode(aggview.Full), aggview.WithColdCache())
		if err != nil {
			t.Fatalf("query %d on recovered: %v", qi, err)
		}
		if rowsFingerprint(mres) != rowsFingerprint(rres) {
			t.Fatalf("query %d: recovered engine returned different rows", qi)
		}
		if mres.IO != rres.IO {
			t.Fatalf("query %d: cold-cache IO diverged: reference %+v, recovered %+v", qi, mres.IO, rres.IO)
		}
		if mres.Plan.PlanText != rres.Plan.PlanText {
			t.Fatalf("query %d: plans diverged:\nreference:\n%s\nrecovered:\n%s", qi, mres.Plan.PlanText, rres.Plan.PlanText)
		}
	}
}

// TestPlanCacheInvalidationAcrossRecovery (satellite): the persisted
// catalog version makes plan-cache invalidation sound across a crash. A
// recovered engine never serves a stale cached plan: its first prepared
// execution is a miss, and post-recovery mutations invalidate exactly as
// they would have pre-crash.
func TestPlanCacheInvalidationAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir)
	eng.MustExec(`create table emp (eno int, dno int, sal float)`)
	eng.MustExec(`insert into emp values (1, 1, 100.0), (2, 1, 200.0), (3, 2, 300.0)`)
	eng.MustExec(`analyze emp`)

	const q = `select dno, sum(sal) from emp group by dno`
	st, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare compiles eagerly, so the first execution already hits.
	if res, err := st.QueryContext(context.Background()); err != nil || res.Plan.CacheStatus != "hit" {
		t.Fatalf("first run: %v, status %v", err, res.Plan.CacheStatus)
	}

	// One acknowledged mutation, then a crash on the next. The mutation
	// invalidates the cached plan pre-crash, as usual.
	eng.MustExec(`insert into emp values (4, 2, 400.0)`)
	if res, err := st.QueryContext(context.Background()); err != nil || res.Plan.CacheStatus != "invalidated" {
		t.Fatalf("post-insert run: %v, status %v", err, res.Plan.CacheStatus)
	}
	ackedVersion := eng.CatalogVersion()
	eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: 0, Torn: true})
	if _, err := eng.Exec(`insert into emp values (5, 3, 500.0)`); !errors.Is(err, aggview.ErrCrashed) {
		t.Fatalf("crash trigger err = %v", err)
	}
	// The dead engine's prepared statements are refused too.
	if _, err := st.QueryContext(context.Background()); !errors.Is(err, aggview.ErrEngineDead) {
		t.Fatalf("dead-engine prepared query err = %v, want ErrEngineDead", err)
	}
	eng.Close()

	rec := openDurable(t, dir)
	defer rec.Close()
	// Version continuity: the recovered engine resumes the persisted
	// sequence, so no version number is ever reused for different state.
	if got := rec.CatalogVersion(); got != ackedVersion {
		t.Fatalf("recovered version %d, want %d", got, ackedVersion)
	}

	// The recovered engine's cache is empty until Prepare compiles against
	// the recovered catalog; the plan it then serves was compiled at the
	// recovered version, never inherited from the crashed process.
	if rec.PlanCacheLen() != 0 {
		t.Fatalf("recovered engine has %d cached plans before any Prepare", rec.PlanCacheLen())
	}
	st2, err := rec.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st2.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.CacheStatus != "hit" {
		t.Fatalf("first post-recovery status %q, want hit of the freshly compiled plan", res.Plan.CacheStatus)
	}
	// The plan reflects recovered state: the un-acknowledged insert is gone
	// (row 5 never existed), the acknowledged one is present.
	if cnt, err := rec.Query(context.Background(), `select count(*) from emp`); err != nil || cnt.Rows[0][0].(int64) != 4 {
		t.Fatalf("post-recovery count: %v %v", cnt, err)
	}
	if got := rowsFingerprint(res); got != rowsFingerprint(rec.MustExec(q)) {
		t.Fatalf("prepared result diverges from ad-hoc result")
	}
	// Post-recovery mutations invalidate normally.
	rec.MustExec(`insert into emp values (6, 3, 600.0)`)
	res, err = st2.QueryContext(context.Background())
	if err != nil || res.Plan.CacheStatus != "invalidated" {
		t.Fatalf("post-mutation status %v, err %v", res.Plan.CacheStatus, err)
	}
}

// TestDurableBasics covers the non-crash durable lifecycle: reopen after a
// clean close, checkpoint + reopen (recovery from snapshot alone), and the
// WithConfig derivative sharing the log.
func TestDurableBasics(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir)
	if !eng.Durable() {
		t.Fatal("Durable() = false")
	}
	spec := aggview.DefaultEmpDept()
	spec.Employees, spec.Departments = 300, 10
	if err := eng.LoadEmpDept(spec); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`create view pay (dno, total) as select dno, sum(sal) from emp group by dno`)
	fp := eng.StateFingerprint()
	want, err := eng.Query(context.Background(), `select * from pay order by total desc limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: log replay only.
	re1 := openDurable(t, dir)
	if re1.StateFingerprint() != fp {
		t.Fatal("clean reopen diverged")
	}
	// Checkpoint, then reopen: snapshot-only recovery (empty log tail).
	if err := re1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if re1.StateFingerprint() != fp {
		t.Fatal("checkpoint changed logical state")
	}
	re1.Close()

	re2 := openDurable(t, dir)
	defer re2.Close()
	if re2.StateFingerprint() != fp {
		t.Fatal("snapshot recovery diverged")
	}
	got, err := re2.Query(context.Background(), `select * from pay order by total desc limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if rowsFingerprint(got) != rowsFingerprint(want) {
		t.Fatal("view answer changed across checkpoint recovery")
	}

	// A WithConfig derivative writes through the same log.
	derived := re2.WithConfig(aggview.Config{Mode: aggview.Traditional})
	if !derived.Durable() {
		t.Fatal("derived engine lost durability")
	}
	derived.MustExec(`insert into emp values (9999, 1, 1234.5, 1)`)
	fp2 := re2.StateFingerprint()
	re2.Close()
	re3 := openDurable(t, dir)
	defer re3.Close()
	if re3.StateFingerprint() != fp2 {
		t.Fatal("derived-engine mutation not recovered")
	}
}

// TestOpenDurableCorruptCheckpoint: real damage — a flipped byte inside
// the checkpoint snapshot — surfaces as ErrCorrupt from OpenDurable. (A
// damaged final log record, by contrast, is a torn tail and is truncated:
// TestCrashSweep* cover that side.)
func TestOpenDurableCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir)
	eng.MustExec(`create table t (x int, y int)`)
	for i := 0; i < 50; i++ {
		eng.MustExec(fmt.Sprintf(`insert into t values (%d, %d)`, i, i*i))
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "checkpoint.bin")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = aggview.OpenDurable(aggview.Config{PoolPages: 16, DataDir: dir})
	if err == nil {
		t.Fatal("OpenDurable accepted a corrupted checkpoint")
	}
	if !errors.Is(err, aggview.ErrCorrupt) {
		t.Fatalf("err = %v, want wrapped ErrCorrupt", err)
	}
}

// TestInMemoryEngineUnaffected: in-memory engines report the durable API
// as inert and keep working exactly as before.
func TestInMemoryEngineUnaffected(t *testing.T) {
	eng := aggview.Open(aggview.Config{PoolPages: 8})
	if eng.Durable() {
		t.Fatal("in-memory engine claims durability")
	}
	if eng.WALWrites() != 0 {
		t.Fatal("in-memory engine counts log writes")
	}
	eng.InjectWALCrash(&aggview.CrashPlan{CrashAfterNWrites: 0}) // no-op
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("in-memory Checkpoint should error")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`create table t (x int)`)
	if _, err := eng.Query(context.Background(), `select count(*) from t`); err != nil {
		t.Fatal(err)
	}
}
