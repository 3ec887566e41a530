package exec

import (
	"fmt"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
	"aggview/internal/storage"
	"aggview/internal/types"
)

// Naive evaluates a plan with the simplest possible semantics — full
// in-memory materialization, nested-loops joins, map-based grouping —
// independent of the Volcano operators, join methods and spill machinery.
// It is the oracle for the executor's correctness tests and for the
// transformation-equivalence property tests: any legal plan must produce
// the same bag of rows under Naive and under Executor.Run. params are the
// values of the plan's `?` placeholders (nil when it has none).
func Naive(store *storage.Store, n lplan.Node, params []types.Value) (*Result, error) {
	if err := lplan.Validate(n); err != nil {
		return nil, fmt.Errorf("naive: invalid plan: %w", err)
	}
	rows, err := naiveRows(store, n, params)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}

func naiveRows(store *storage.Store, n lplan.Node, params []types.Value) ([]types.Row, error) {
	switch t := n.(type) {
	case *lplan.Scan:
		return naiveScan(store, t, params)
	case *lplan.Filter:
		in, err := naiveRows(store, t.In, params)
		if err != nil {
			return nil, err
		}
		pred, err := naivePreds(t.Preds, t.In.Schema())
		if err != nil {
			return nil, err
		}
		var out []types.Row
		for _, r := range in {
			ok, err := pred(r, params)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil

	case *lplan.Project:
		in, err := naiveRows(store, t.In, params)
		if err != nil {
			return nil, err
		}
		fns := make([]expr.Compiled, len(t.Items))
		for i, ne := range t.Items {
			fn, err := expr.Compile(ne.E, t.In.Schema())
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		out := make([]types.Row, len(in))
		for i, r := range in {
			row := make(types.Row, len(fns))
			for j, fn := range fns {
				v, err := fn(r, params)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			out[i] = row
		}
		return out, nil

	case *lplan.Sort:
		in, err := naiveRows(store, t.In, params)
		if err != nil {
			return nil, err
		}
		cols, err := colIndexes(t.In.Schema(), t.By)
		if err != nil {
			return nil, err
		}
		keys := sortKeys{cols: cols, desc: t.Desc}
		out := append([]types.Row{}, in...)
		// Insertion sort keeps the oracle trivially auditable.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && keys.compare(out[j], out[j-1]) < 0; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out, nil

	case *lplan.Join:
		l, err := naiveRows(store, t.L, params)
		if err != nil {
			return nil, err
		}
		r, err := naiveRows(store, t.R, params)
		if err != nil {
			return nil, err
		}
		concat := t.L.Schema().Concat(t.R.Schema())
		pred, err := naivePreds(t.Preds, concat)
		if err != nil {
			return nil, err
		}
		var proj []int
		if t.Proj != nil {
			proj, err = colIndexes(concat, t.Proj)
			if err != nil {
				return nil, err
			}
		}
		lWidth := len(t.L.Schema())
		rWidth := len(t.R.Schema())
		pad := func(lr, rr types.Row) types.Row {
			row := make(types.Row, 0, lWidth+rWidth)
			if lr == nil {
				for i := 0; i < lWidth; i++ {
					row = append(row, types.Null())
				}
			} else {
				row = append(row, lr...)
			}
			if rr == nil {
				for i := 0; i < rWidth; i++ {
					row = append(row, types.Null())
				}
			} else {
				row = append(row, rr...)
			}
			return projRow(row, proj)
		}
		var out []types.Row
		rMatched := make([]bool, len(r))
		for _, lr := range l {
			lrMatched := false
			for ri, rr := range r {
				row := make(types.Row, 0, len(lr)+len(rr))
				row = append(row, lr...)
				row = append(row, rr...)
				ok, err := pred(row, params)
				if err != nil {
					return nil, err
				}
				if ok {
					lrMatched = true
					rMatched[ri] = true
					out = append(out, projRow(row, proj))
				}
			}
			// LEFT/FULL outer: an unmatched preserved row appears once,
			// padded with NULLs on the other side (bypassing the ON
			// predicate — that is what "unmatched" means).
			if !lrMatched && t.Type.Outer() {
				out = append(out, pad(lr, nil))
			}
		}
		if t.Type == lplan.JoinFull {
			for ri, rr := range r {
				if !rMatched[ri] {
					out = append(out, pad(nil, rr))
				}
			}
		}
		return out, nil

	case *lplan.GroupBy:
		return naiveGroupBy(store, t, params)

	default:
		return nil, fmt.Errorf("naive: unknown node type %T", n)
	}
}

// naivePreds compiles a conjunct list into one row filter over s, evaluated
// a row and a conjunct at a time: the reference executor's own, kept apart
// from the selection kernels (expr.Filter) it checks.
func naivePreds(preds []expr.Expr, s schema.Schema) (expr.Predicate, error) {
	fs := make([]expr.Predicate, len(preds))
	for i, p := range preds {
		var err error
		if fs[i], err = expr.CompilePredicate(p, s); err != nil {
			return nil, err
		}
	}
	return func(row types.Row, params []types.Value) (bool, error) {
		for _, f := range fs {
			ok, err := f(row, params)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}, nil
}

func naiveScan(store *storage.Store, s *lplan.Scan, params []types.Value) ([]types.Row, error) {
	base := s.Table.Schema.Rename(s.Alias)
	if s.WithTID {
		base = append(base, schema.Column{
			ID: schema.ColID{Rel: s.Alias, Name: lplan.TIDColumn}, Type: types.KindInt})
	}
	filter, err := naivePreds(s.Filter, base)
	if err != nil {
		return nil, err
	}
	var proj []int
	if s.Proj != nil {
		proj, err = colIndexes(base, s.Proj)
		if err != nil {
			return nil, err
		}
	}
	var out []types.Row
	sc := store.NewScanner(s.Table.File)
	for {
		page, rid, ok, err := sc.NextPage()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		for k, row := range page.AppendRows(nil) {
			if s.WithTID {
				row = append(row, types.NewInt(rid+int64(k)))
			}
			keep, err := filter(row, params)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, projRow(row, proj))
			}
		}
	}
}

func naiveGroupBy(store *storage.Store, g *lplan.GroupBy, params []types.Value) ([]types.Row, error) {
	in, err := naiveRows(store, g.In, params)
	if err != nil {
		return nil, err
	}
	inSchema := g.In.Schema()
	groupPos, err := colIndexes(inSchema, g.GroupCols)
	if err != nil {
		return nil, err
	}
	argFns := make([]expr.Compiled, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Arg == nil {
			continue
		}
		fn, err := expr.Compile(a.Arg, inSchema)
		if err != nil {
			return nil, err
		}
		argFns[i] = fn
	}

	type grp struct {
		vals types.Row
		accs []expr.Accumulator
	}
	groups := map[string]*grp{}
	var order []string // deterministic-ish iteration: first-seen order
	var buf []byte
	for _, row := range in {
		buf = row.AppendKey(buf[:0], groupPos)
		k := string(buf)
		gr, ok := groups[k]
		if !ok {
			gr = &grp{vals: projRow(row, groupPos).Clone(), accs: make([]expr.Accumulator, len(g.Aggs))}
			for i, a := range g.Aggs {
				gr.accs[i] = a.NewAccumulator()
			}
			groups[k] = gr
			order = append(order, k)
		}
		for i := range g.Aggs {
			if argFns[i] == nil {
				gr.accs[i].Add(types.NewInt(1))
				continue
			}
			v, err := argFns[i](row, params)
			if err != nil {
				return nil, err
			}
			gr.accs[i].Add(v)
		}
	}
	if len(g.GroupCols) == 0 && len(groups) == 0 {
		gr := &grp{vals: types.Row{}, accs: make([]expr.Accumulator, len(g.Aggs))}
		for i, a := range g.Aggs {
			gr.accs[i] = a.NewAccumulator()
		}
		groups[""] = gr
		order = append(order, "")
	}

	inner := g.InnerSchema()
	having, err := naivePreds(g.Having, inner)
	if err != nil {
		return nil, err
	}
	var outFns []expr.Compiled
	for _, ne := range g.Outputs {
		fn, err := expr.Compile(ne.E, inner)
		if err != nil {
			return nil, err
		}
		outFns = append(outFns, fn)
	}

	var out []types.Row
	for _, k := range order {
		gr := groups[k]
		innerRow := make(types.Row, 0, len(gr.vals)+len(gr.accs))
		innerRow = append(innerRow, gr.vals...)
		for _, acc := range gr.accs {
			innerRow = append(innerRow, acc.Result())
		}
		keep, err := having(innerRow, params)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		if outFns == nil {
			out = append(out, innerRow)
			continue
		}
		row := make(types.Row, len(outFns))
		for i, fn := range outFns {
			v, err := fn(innerRow, params)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// projRow applies a precomputed index projection, or returns the row as-is.
func projRow(row types.Row, proj []int) types.Row {
	if proj == nil {
		return row
	}
	out := make(types.Row, len(proj))
	for i, j := range proj {
		out[i] = row[j]
	}
	return out
}

// BagEqual reports whether two results contain the same multiset of rows
// (column order must match; row order is ignored). Float aggregates are
// compared with a small relative tolerance to absorb summation-order
// differences between plans.
func BagEqual(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	counts := map[string]int{}
	var buf []byte
	for _, r := range a.Rows {
		buf = canonKey(buf[:0], r)
		counts[string(buf)]++
	}
	for _, r := range b.Rows {
		buf = canonKey(buf[:0], r)
		counts[string(buf)]--
		if counts[string(buf)] < 0 {
			return false
		}
	}
	return true
}

// canonKey encodes a row with floats rounded to 9 significant digits so
// that bag comparison tolerates non-associative float addition.
func canonKey(dst []byte, r types.Row) []byte {
	for _, v := range r {
		if v.K == types.KindFloat {
			dst = types.AppendKey(dst, types.NewString(fmt.Sprintf("%.9g", v.F())))
			continue
		}
		dst = types.AppendKey(dst, v)
	}
	return dst
}
