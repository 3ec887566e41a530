package aggview

import (
	"container/list"
	"fmt"
	"sync"

	"aggview/internal/binder"
	"aggview/internal/core"
	"aggview/internal/cost"
	"aggview/internal/exec"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/sql"
	"aggview/internal/types"
)

// Plan-provenance values recorded per execution (PlanInfo.CacheStatus,
// QueryMetrics.PlanCache).
const (
	// cacheHit: the execution reused a cached compiled plan; no binding or
	// optimization ran.
	cacheHit = "hit"
	// cacheMiss: no cached plan existed; the statement was compiled and the
	// plan cached.
	cacheMiss = "miss"
	// cacheInvalidated: a cached plan existed but was compiled under an
	// older catalog version; it was dropped and the statement recompiled.
	cacheInvalidated = "invalidated"
	// cacheBypass: the cache was not consulted — the run read a writer's
	// working state, needed a search trace (EXPLAIN paths), or the plan
	// degraded under an optimizer budget (degraded plans are never cached).
	cacheBypass = "bypass"
)

// planCacheSize is the number of compiled plans an engine retains.
const planCacheSize = 64

// compiledPlan is the immutable product of parse → bind → optimize →
// compile: everything needed to run the statement, and nothing tied to a
// single run. The plan tree is frozen (its schemas cached; see lplan.Freeze)
// and compiled into an exec.Program (legality checked, operators labelled,
// expressions compiled, each `?` a slot) before the compiledPlan is
// published, so any number of concurrent executions can open it and none
// repeats work that depends only on the plan; per-run state — parameter
// values, the storage session, the governor, collectors — lives in queryRun
// and the executor.
type compiledPlan struct {
	// Bound is the statement as bound: output column names, ORDER BY keys,
	// LIMIT, and the `?` slots (count and inferred kinds) a run must fill.
	*binder.Bound
	key     planKey       // cache identity: token-stream key (when cacheable) + mode
	version int64         // catalog version the plan was compiled under
	info    PlanInfo      // compile-time plan description (copied per run)
	prog    *exec.Program // the plan compiled for execution
}

// runInfo builds one execution's PlanInfo: the compile-time info stamped
// with this run's provenance. A cache hit did no search, so Search and
// Trace are zeroed — per-run search stats measure the run, not the
// original compilation (the acceptance signal that a warm hit skipped the
// optimizer entirely).
func (cp *compiledPlan) runInfo(status string) *PlanInfo {
	pi := cp.info
	pi.CacheStatus = status
	if status == cacheHit {
		pi.Search = SearchStats{}
		pi.Trace = nil
	}
	return &pi
}

// resolvePlan is the pipeline's resolve stage: it sets the run's compiled
// plan and its provenance (hit/miss/invalidated/bypass), taking the plan
// from the engine cache or compiling it on a miss or a stale catalog
// version — the check, the compile and the execution all see the run's one
// pinned snapshot. Ad-hoc and prepared statements share the cache, keyed by
// the statement's token stream (sql.CacheKey, taken from the text: a hit
// never parses) plus resolved optimizer mode (fixed at Prepare), so a
// repeated query pays parse+bind+optimize once per catalog version. sel is
// the parsed statement when the door already holds it.
//
// The cache is neither consulted nor populated when the run reads a
// writer's unpublished working state, or when an ad-hoc run wants a search
// trace (that requires a real search; a prepared statement's EXPLAIN
// ANALYZE reports on the plan the statement actually runs, so it does use
// the cache). Degraded plans are artifacts of one run's optimizer budget
// and are never cached: that would pin a known-worse plan past the
// pressure that produced it.
func (qr *queryRun) resolvePlan(sel *sql.Select) error {
	e, opt := qr.engine, &qr.opt
	cacheable := opt.snap == nil && (opt.stmt != nil || !opt.trace)
	key := planKey{mode: opt.mode, noViewRewrite: opt.noViewRewrite}
	if opt.stmt != nil {
		key = opt.stmt.key
	} else {
		if key.mode == ModeDefault {
			key.mode = e.cfg.Mode
		}
		if cacheable {
			var err error
			if key.text, err = sql.CacheKey(qr.src); err != nil {
				return err // text that does not lex: the error Parse reports
			}
		}
	}
	status := cacheBypass
	if cacheable {
		qr.cp, status = e.cache.get(key, qr.snap.Version())
	}
	if qr.cp == nil {
		cp, err := qr.compile(key, sel)
		if err != nil {
			return err
		}
		switch {
		case cp.info.Degraded:
			status = cacheBypass
		case cacheable:
			e.reg.ObserveEviction(e.cache.put(cp))
		}
		qr.cp = cp
	}
	qr.planInfo = qr.cp.runInfo(status)
	return nil
}

// compile is the pipeline's parse and bind stages followed by optimization,
// the last two (the "optimize" span) against the run's snapshot — so the
// catalog version stamped on the plan is consistent with the schema and
// statistics the optimizer saw no matter what commits concurrently — under
// the run's governor. It ends by freezing the plan and compiling it for the
// executor: everything a run needs that depends only on the tree (schemas,
// the legality check, operator labels, compiled expressions) is computed
// here, once, before the plan can be shared. A view-maintenance run arrives
// already bound.
func (qr *queryRun) compile(key planKey, sel *sql.Select) (*compiledPlan, error) {
	bound := &binder.Bound{Query: qr.opt.block, Limit: -1}
	var err error
	if bound.Query == nil && sel == nil {
		// Only a compilation needs the AST, so only a compilation parses —
		// each from pristine source rather than a retained tree, which the
		// binder's flattening pass may rewrite in place.
		if sel, err = parseSelect(qr.src); err != nil {
			return nil, err
		}
	}
	defer qr.col.Time("optimize")()
	if bound.Query == nil {
		if bound, err = binder.BindSelect(qr.snap, sel); err != nil {
			return nil, err
		}
	}
	var trace *core.SearchTrace
	if qr.opt.trace {
		trace = core.NewSearchTrace()
	}
	plan, usedMode, err := qr.engine.optimizeLadder(qr.snap, bound.Query, key.mode, key.noViewRewrite, &qr.gov, trace)
	if err != nil {
		return nil, err
	}
	if len(bound.OrderBy) > 0 {
		if err := orderBy(plan, bound.OrderBy, qr.engine.cfg.PoolPages); err != nil {
			return nil, err
		}
	}
	// While the tree is still private to this goroutine; afterwards it is
	// read-only.
	lplan.Freeze(plan.Root)
	prog, err := exec.Compile(plan.Root)
	if err != nil {
		return nil, err
	}
	return &compiledPlan{
		Bound:   bound,
		key:     key,
		version: qr.snap.Version(),
		info: PlanInfo{
			Mode:          usedMode,
			RequestedMode: key.mode,
			Degraded:      usedMode != key.mode,
			PlanText:      plan.Explain(),
			EstimatedCost: plan.Cost,
			EstimatedRows: plan.Info.Rows,
			Search:        plan.Stats,
			Trace:         trace,
			ViewRewrite:   plan.ViewRewrite,
			root:          plan.Root,
		},
		prog: prog,
	}, nil
}

// orderBy puts the statement's ORDER BY on top of the chosen plan: a Sort
// whose keys are the root's output columns at the keys' positions, costed by
// the model's one Sort formula over the search's numbers for the plan below.
// The binder keeps the top block's output IDs unique (a repeated name gains
// a "_"), so a key's ID names its position.
func orderBy(plan *core.Plan, keys []binder.OrderKey, poolPages int) error {
	out := plan.Root.Schema()
	s := &lplan.Sort{In: plan.Root, By: make([]schema.ColID, len(keys)), Desc: make([]bool, len(keys))}
	for i, k := range keys {
		s.By[i], s.Desc[i] = out[k.Col].ID, k.Desc
	}
	m := cost.NewModel(poolPages, 0)
	m.Seed(plan.Root, plan.Info)
	info, err := m.Info(s)
	if err != nil {
		return err
	}
	plan.Root, plan.Info, plan.Cost = s, info, info.Cost
	return nil
}

// checkParams validates one run's parameter vector against the plan's
// slots: exact arity, and kind agreement wherever the binder inferred a
// slot type from the comparison the placeholder appears in. Ints coerce
// into float slots (matching the engine's literal rules); any other
// mismatch is an error. The returned slice is the input, copied only when
// a coercion rewrites a value.
func checkParams(cp *compiledPlan, vals []types.Value) ([]types.Value, error) {
	if len(vals) != cp.NumParams {
		if cp.NumParams == 0 {
			return nil, fmt.Errorf("aggview: statement takes no parameters, got %d value(s)", len(vals))
		}
		return nil, fmt.Errorf("aggview: statement has %d parameter placeholder(s), got %d value(s)",
			cp.NumParams, len(vals))
	}
	out := vals
	for i, v := range vals {
		want := cp.ParamTypes[i]
		if want == types.KindNull || v.K == want {
			continue
		}
		if want == types.KindFloat && v.K == types.KindInt {
			if &out[0] == &vals[0] {
				out = append([]types.Value(nil), vals...)
			}
			out[i] = types.NewFloat(v.Float())
			continue
		}
		return nil, fmt.Errorf("aggview: parameter ?%d: expected %s, got %s", i+1, want, v.K)
	}
	return out, nil
}

// planKey identifies a cached plan: the statement's token stream in
// canonical form (sql.CacheKey: whitespace, comments and keyword/identifier
// case normalized away, literals kept exactly) plus the optimizer mode that
// compiled it. Equal text means equal tokens and so an equal parse. The catalog version is deliberately not
// part of the key — entries carry the version they were compiled under and
// are invalidated lazily at lookup, so a DDL burst does not strand dead
// entries in the map.
type planKey struct {
	text string
	mode OptimizerMode
	// noViewRewrite separates WithoutViewRewrite compilations: a cached
	// view-backed plan must never serve the control setting, and vice versa.
	noViewRewrite bool
}

// planCache is the engine's LRU cache of compiled plans, shared by ad-hoc
// and prepared statements. It is safe for concurrent use; the mutex also
// orders plan publication, giving readers of a cached plan a happens-before
// edge on the frozen tree.
type planCache struct {
	mu      sync.Mutex
	lru     *list.List // of *compiledPlan; front = most recently used
	entries map[planKey]*list.Element
}

// newPlanCache builds an empty plan cache.
func newPlanCache() *planCache {
	return &planCache{lru: list.New(), entries: map[planKey]*list.Element{}}
}

// get returns the cached plan for key when one exists and was compiled
// under the current catalog version. The status is cacheHit, cacheMiss,
// or cacheInvalidated (a stale entry was found and dropped — the caller
// recompiles).
func (c *planCache) get(key planKey, version int64) (*compiledPlan, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, cacheMiss
	}
	cp := el.Value.(*compiledPlan)
	if cp.version != version {
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil, cacheInvalidated
	}
	c.lru.MoveToFront(el)
	return cp, cacheHit
}

// put inserts (or refreshes) a compiled plan under its key and returns the
// number of entries evicted to stay within capacity.
func (c *planCache) put(cp *compiledPlan) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[cp.key]; ok {
		el.Value = cp
		c.lru.MoveToFront(el)
		return 0
	}
	c.entries[cp.key] = c.lru.PushFront(cp)
	evicted := 0
	for c.lru.Len() > planCacheSize {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*compiledPlan).key)
		evicted++
	}
	return evicted
}
