package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"aggview/internal/schema"
	"aggview/internal/types"
)

// AggKind enumerates the aggregate functions understood by the engine.
type AggKind int

// Aggregate functions. Median is deliberately non-decomposable: it exists to
// exercise the applicability check of the simple coalescing transformation
// (paper §4.2: "the aggregating functions … satisfy the property of being
// decomposable").
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggMedian
)

// String renders the SQL name of the function.
func (k AggKind) String() string {
	switch k {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggMedian:
		return "MEDIAN"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggKindByName resolves a SQL function name (upper or lower case handled by
// the caller) to an AggKind.
func AggKindByName(name string) (AggKind, bool) {
	switch name {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "MEDIAN":
		return AggMedian, true
	default:
		return 0, false
	}
}

// Decomposable reports whether the function can be computed by coalescing
// partial aggregates over sub-groups (paper §4.2). AVG decomposes through
// the (SUM, COUNT) pair; see Decompose.
func (k AggKind) Decomposable() bool { return k != AggMedian }

// ResultType infers the output kind of the aggregate over an input schema.
func (k AggKind) ResultType(arg Expr, s schema.Schema) types.Kind {
	switch k {
	case AggCountStar, AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	case AggSum:
		if arg != nil && arg.Type(s) == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	case AggMedian:
		return types.KindFloat
	default: // MIN, MAX preserve the argument type
		if arg == nil {
			return types.KindNull
		}
		return arg.Type(s)
	}
}

// Agg is one aggregate computation: a function applied to an argument
// expression, producing an output column named Out.
type Agg struct {
	Kind AggKind
	User string       // user-defined aggregate name when Kind == AggUser
	Arg  Expr         // nil for COUNT(*)
	Out  schema.ColID // identity of the output column
}

// String renders e.g. "AVG(e2.sal) AS b.Asal".
func (a Agg) String() string {
	var call string
	switch {
	case a.Kind == AggCountStar:
		call = "COUNT(*)"
	case a.Kind == AggUser:
		call = fmt.Sprintf("%s(%s)", strings.ToUpper(a.User), a.Arg)
	default:
		call = fmt.Sprintf("%s(%s)", a.Kind, a.Arg)
	}
	return fmt.Sprintf("%s AS %s", call, a.Out)
}

// Rename returns a copy with column references inside the argument rewritten.
func (a Agg) Rename(m map[string]string) Agg {
	out := a
	if a.Arg != nil {
		out.Arg = RenameRels(a.Arg, m)
	}
	if to, ok := m[a.Out.Rel]; ok {
		out.Out = schema.ColID{Rel: to, Name: a.Out.Name}
	}
	return out
}

// DecomposedPart describes one partial aggregate produced by the lower
// group-by of a simple-coalescing split.
type DecomposedPart struct {
	Partial  Agg     // aggregate computed by the lower group-by G2
	Coalesce AggKind // aggregate the upper group-by G1 applies to the partial
}

// Decompose splits the aggregate for simple coalescing: the lower group-by
// computes the partial aggregates, the upper one coalesces them, and Final
// rebuilds the original value from the coalesced outputs. The partial output
// columns are named by suffixing Out.Name, and Final refers to them by those
// names. Decompose fails for non-decomposable functions.
//
//	SUM(x)   → partial SUM(x) s;             final s            (coalesce SUM)
//	COUNT(x) → partial COUNT(x) c;           final c            (coalesce SUM)
//	MIN(x)   → partial MIN(x) m;             final m            (coalesce MIN)
//	AVG(x)   → partials SUM(x) s, COUNT(x) c; final s / c       (coalesce SUM, SUM)
func (a Agg) Decompose() (parts []DecomposedPart, final Expr, err error) {
	if !a.Kind.Decomposable() {
		return nil, nil, fmt.Errorf("aggregate %s is not decomposable", a.Kind)
	}
	part := func(k AggKind, suffix string) schema.ColID {
		return schema.ColID{Rel: a.Out.Rel, Name: a.Out.Name + suffix}
	}
	switch a.Kind {
	case AggSum:
		id := part(AggSum, "$sum")
		return []DecomposedPart{{Partial: Agg{Kind: AggSum, Arg: a.Arg, Out: id}, Coalesce: AggSum}},
			ColOf(id), nil
	case AggCount:
		id := part(AggCount, "$cnt")
		return []DecomposedPart{{Partial: Agg{Kind: AggCount, Arg: a.Arg, Out: id}, Coalesce: AggSum}},
			ColOf(id), nil
	case AggCountStar:
		id := part(AggCountStar, "$cnt")
		return []DecomposedPart{{Partial: Agg{Kind: AggCountStar, Out: id}, Coalesce: AggSum}},
			ColOf(id), nil
	case AggMin:
		id := part(AggMin, "$min")
		return []DecomposedPart{{Partial: Agg{Kind: AggMin, Arg: a.Arg, Out: id}, Coalesce: AggMin}},
			ColOf(id), nil
	case AggMax:
		id := part(AggMax, "$max")
		return []DecomposedPart{{Partial: Agg{Kind: AggMax, Arg: a.Arg, Out: id}, Coalesce: AggMax}},
			ColOf(id), nil
	case AggAvg:
		sid := part(AggSum, "$sum")
		cid := part(AggCount, "$cnt")
		return []DecomposedPart{
				{Partial: Agg{Kind: AggSum, Arg: a.Arg, Out: sid}, Coalesce: AggSum},
				{Partial: Agg{Kind: AggCount, Arg: a.Arg, Out: cid}, Coalesce: AggSum},
			},
			NewArith(Div, ColOf(sid), ColOf(cid)), nil
	default:
		return nil, nil, fmt.Errorf("aggregate %s is not decomposable", a.Kind)
	}
}

// Accumulator folds values of one group for one aggregate.
type Accumulator interface {
	// Add folds one input value (ignored argument for COUNT(*)).
	Add(v types.Value)
	// Result returns the aggregate value of the group. Empty groups yield
	// NULL except COUNT variants, which yield 0.
	Result() types.Value
}

// NewAccumulator returns a fresh accumulator for the function. The argument
// values passed to Add must already be evaluated argument expressions.
func (k AggKind) NewAccumulator() Accumulator {
	switch {
	case k.HasState():
		return &stateAcc{k: k}
	case k == AggMedian:
		return &medianAcc{}
	default:
		// Unknown kinds are rejected by Agg.Check before execution; degrade
		// to an all-NULL accumulator so malformed plans cannot crash the
		// process.
		return nullAcc{}
	}
}

// nullAcc is the accumulator of an unknown or unregistered aggregate: it
// ignores every input and yields NULL. It exists only as a non-panicking
// fallback; Agg.Check rejects such aggregates before any executor runs.
type nullAcc struct{}

func (nullAcc) Add(types.Value)     {}
func (nullAcc) Result() types.Value { return types.Null() }

// AggState is the running state of one COUNT, SUM, AVG, MIN or MAX over one
// group: a single value, so that an executor keeps the states of all its
// groups in rows of values instead of one heap object per group per
// aggregate (a *types.Value converts to a *AggState). The zero AggState,
// NULL, is the state of an empty group. MEDIAN and user-defined aggregates
// carry unbounded or opaque state and go through Accumulator.
//
// COUNT keeps the count in I. AVG keeps the count in I and the sum in F.
// SUM is the running sum as a value, INT until a FLOAT arrives; MIN and MAX
// are the best input so far. Those three stay NULL until an input arrives,
// which is also their result over no input.
type AggState types.Value

// HasState reports whether the function folds through an AggState.
func (k AggKind) HasState() bool {
	switch k {
	case AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax:
		return true
	default:
		return false
	}
}

// Add folds one input value of aggregate k into the state. NULLs are
// ignored by every function.
func (s *AggState) Add(k AggKind, v types.Value) {
	if v.IsNull() {
		return
	}
	switch k {
	case AggCountStar, AggCount:
		s.I++
	case AggSum:
		if s.K == types.KindNull {
			s.K = types.KindInt
		}
		switch {
		case s.K == types.KindFloat:
			s.F += v.Float()
		case v.K == types.KindFloat:
			*s = AggState(types.NewFloat(float64(s.I) + v.F))
		default:
			s.I += v.Int()
		}
	case AggAvg:
		s.I++
		s.F += v.Float()
	case AggMin:
		if s.K == types.KindNull || types.Compare(v, types.Value(*s)) < 0 {
			*s = AggState(v)
		}
	case AggMax:
		if s.K == types.KindNull || types.Compare(v, types.Value(*s)) > 0 {
			*s = AggState(v)
		}
	}
}

// Result returns the value of aggregate k over the inputs folded so far.
// Empty groups yield NULL except COUNT variants, which yield 0.
func (s *AggState) Result(k AggKind) types.Value {
	switch k {
	case AggCountStar, AggCount:
		return types.NewInt(s.I)
	case AggAvg:
		if s.I == 0 {
			return types.Null()
		}
		return types.NewFloat(s.F / float64(s.I))
	default: // SUM, MIN, MAX
		return types.Value(*s)
	}
}

// stateAcc is an AggState behind the Accumulator interface, for callers
// that hold one accumulator per group (the reference executor, view
// maintenance).
type stateAcc struct {
	k AggKind
	s AggState
}

func (a *stateAcc) Add(v types.Value)   { a.s.Add(a.k, v) }
func (a *stateAcc) Result() types.Value { return a.s.Result(a.k) }

type medianAcc struct {
	vals []float64
}

func (a *medianAcc) Add(v types.Value) {
	if v.IsNull() {
		return
	}
	a.vals = append(a.vals, v.Float())
}
func (a *medianAcc) Result() types.Value {
	if len(a.vals) == 0 {
		return types.Null()
	}
	sort.Float64s(a.vals)
	n := len(a.vals)
	if n%2 == 1 {
		return types.NewFloat(a.vals[n/2])
	}
	return types.NewFloat((a.vals[n/2-1] + a.vals[n/2]) / 2)
}

// AggUser marks a user-defined aggregate function; the Agg's User field
// names it. The paper allows side-effect-free user-defined aggregates
// explicitly ("e.g., Sum(colname) and Standard_deviation(colname)").
const AggUser AggKind = 127

// UserAggSpec describes a registered user-defined aggregate.
type UserAggSpec struct {
	// Name is the SQL-visible function name (stored lower-case).
	Name string
	// ResultKind is the aggregate's output type.
	ResultKind types.Kind
	// New returns a fresh accumulator per group.
	New func() Accumulator
	// Decompose, when non-nil, makes the aggregate eligible for the
	// simple coalescing transformation and the pull-up machinery's
	// partial-aggregation placements: it splits the aggregate into
	// built-in partials plus a rebuild expression (like Agg.Decompose
	// does for AVG).
	Decompose func(a Agg) (parts []DecomposedPart, final Expr, err error)
}

var (
	userAggMu sync.RWMutex
	userAggs  = map[string]UserAggSpec{}
)

// RegisterAggregate adds a user-defined aggregate to the global registry.
// Registration is idempotent for identical names only if forced by
// re-registering; a clash with a built-in name is rejected.
func RegisterAggregate(spec UserAggSpec) error {
	name := strings.ToLower(spec.Name)
	if name == "" || spec.New == nil {
		return fmt.Errorf("expr: user aggregate needs a name and an accumulator factory")
	}
	if _, builtin := AggKindByName(strings.ToUpper(name)); builtin {
		return fmt.Errorf("expr: %q is a built-in aggregate", spec.Name)
	}
	if IsScalarFn(strings.ToUpper(name)) {
		return fmt.Errorf("expr: %q is a scalar function", spec.Name)
	}
	userAggMu.Lock()
	defer userAggMu.Unlock()
	spec.Name = name
	userAggs[name] = spec
	return nil
}

// LookupUserAggregate resolves a registered user aggregate by name
// (case-insensitive).
func LookupUserAggregate(name string) (UserAggSpec, bool) {
	userAggMu.RLock()
	defer userAggMu.RUnlock()
	spec, ok := userAggs[strings.ToLower(name)]
	return spec, ok
}

// userSpec fetches the spec of a user aggregate. ok is false on an
// unregistered name (an aggregate whose registration was dropped after the
// statement was parsed, or a hand-built plan); callers degrade gracefully
// and Agg.Check reports the error before execution.
func (a Agg) userSpec() (UserAggSpec, bool) {
	return LookupUserAggregate(a.User)
}

// Check reports whether the aggregate is executable: a known built-in kind,
// or a user aggregate that is currently registered. lplan.Validate calls it
// so an unregistered user aggregate surfaces as a returned error instead of
// a panic deep inside the executor.
func (a Agg) Check() error {
	if a.Kind == AggUser {
		if _, ok := a.userSpec(); !ok {
			return fmt.Errorf("user aggregate %q is not registered", a.User)
		}
		return nil
	}
	switch a.Kind {
	case AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax, AggMedian:
		return nil
	default:
		return fmt.Errorf("unknown aggregate kind %d", int(a.Kind))
	}
}

// Decomposable reports whether the aggregate supports simple coalescing.
func (a Agg) Decomposable() bool {
	if a.Kind == AggUser {
		spec, ok := a.userSpec()
		return ok && spec.Decompose != nil
	}
	return a.Kind.Decomposable()
}

// NewAccumulator returns a fresh accumulator for this aggregate.
func (a Agg) NewAccumulator() Accumulator {
	if a.Kind == AggUser {
		spec, ok := a.userSpec()
		if !ok {
			return nullAcc{}
		}
		return spec.New()
	}
	return a.Kind.NewAccumulator()
}

// ResultType infers the aggregate's output kind over an input schema.
func (a Agg) ResultType(s schema.Schema) types.Kind {
	if a.Kind == AggUser {
		spec, ok := a.userSpec()
		if !ok {
			return types.KindNull
		}
		return spec.ResultKind
	}
	return a.Kind.ResultType(a.Arg, s)
}

// DecomposeAgg splits the aggregate for coalescing, dispatching to the
// user spec for user-defined aggregates.
func (a Agg) DecomposeAgg() (parts []DecomposedPart, final Expr, err error) {
	if a.Kind == AggUser {
		spec, ok := a.userSpec()
		if !ok {
			return nil, nil, fmt.Errorf("user aggregate %q is not registered", a.User)
		}
		if spec.Decompose == nil {
			return nil, nil, fmt.Errorf("aggregate %s is not decomposable", a.User)
		}
		return spec.Decompose(a)
	}
	return a.Decompose()
}

// StdDevSpec returns the population standard deviation as a decomposable
// user aggregate — the paper's own example of a user-defined aggregate.
// It is registered by default under the name "stddev".
func StdDevSpec() UserAggSpec {
	return UserAggSpec{
		Name:       "stddev",
		ResultKind: types.KindFloat,
		New:        func() Accumulator { return &stddevAcc{} },
		Decompose: func(a Agg) ([]DecomposedPart, Expr, error) {
			s := schema.ColID{Rel: a.Out.Rel, Name: a.Out.Name + "$sum"}
			q := schema.ColID{Rel: a.Out.Rel, Name: a.Out.Name + "$sq"}
			c := schema.ColID{Rel: a.Out.Rel, Name: a.Out.Name + "$cnt"}
			parts := []DecomposedPart{
				{Partial: Agg{Kind: AggSum, Arg: a.Arg, Out: s}, Coalesce: AggSum},
				{Partial: Agg{Kind: AggSum, Arg: NewArith(Mul, a.Arg, a.Arg), Out: q}, Coalesce: AggSum},
				{Partial: Agg{Kind: AggCount, Arg: a.Arg, Out: c}, Coalesce: AggSum},
			}
			// sqrt(sumsq/n − (sum/n)²)
			mean := NewArith(Div, ColOf(s), ColOf(c))
			final := NewFn("SQRT", NewArith(Sub,
				NewArith(Div, ColOf(q), ColOf(c)),
				NewArith(Mul, mean, mean)))
			return parts, final, nil
		},
	}
}

type stddevAcc struct {
	n     int64
	sum   float64
	sumsq float64
}

func (a *stddevAcc) Add(v types.Value) {
	if v.IsNull() {
		return
	}
	a.n++
	f := v.Float()
	a.sum += f
	a.sumsq += f * f
}

func (a *stddevAcc) Result() types.Value {
	if a.n == 0 {
		return types.Null()
	}
	mean := a.sum / float64(a.n)
	variance := a.sumsq/float64(a.n) - mean*mean
	if variance < 0 {
		variance = 0 // numeric noise
	}
	return types.NewFloat(math.Sqrt(variance))
}

func init() {
	if err := RegisterAggregate(StdDevSpec()); err != nil {
		panic(err)
	}
}
