package transform

import (
	"fmt"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
)

// PushInvariant applies the invariant grouping transformation (Section
// 4.1): given G(J(R1, R2)) it produces J'(G'(R1), R2) — the group-by moves
// below the join, Having and all. The transformation is sound when the
// join is *invariant* for the groups:
//
//   - every aggregate argument references only R1;
//   - every grouping column comes from R1;
//   - every join predicate's R1-side columns are grouping columns (so all
//     rows of a group behave identically under the join);
//   - the equi-join predicates bind a key of R2 (so each group matches at
//     most one R2 tuple and aggregate values are invariant).
//
// Both join sides are tried; the first applicable side wins.
func PushInvariant(g *lplan.GroupBy) (lplan.Node, error) {
	j, ok := g.In.(*lplan.Join)
	if !ok {
		return nil, fmt.Errorf("invariant grouping: group-by input is not a join")
	}
	if j.Type.Outer() {
		// Invariance reasoning assumes every group row meets the join
		// predicate identically; null-padded rows bypass the predicate, so
		// pushing a group-by below an outer join changes group contents.
		return nil, fmt.Errorf("invariant grouping: illegal below a %s join", j.Type)
	}
	if n, err := pushInvariantSide(g, j, true); err == nil {
		return n, nil
	}
	return pushInvariantSide(g, j, false)
}

func pushInvariantSide(g *lplan.GroupBy, j *lplan.Join, pushLeft bool) (lplan.Node, error) {
	var r1, r2 lplan.Node
	if pushLeft {
		r1, r2 = j.L, j.R
	} else {
		r1, r2 = j.R, j.L
	}
	s1, s2 := r1.Schema(), r2.Schema()

	for _, a := range g.Aggs {
		if a.Arg == nil {
			continue
		}
		for _, c := range expr.Columns(a.Arg) {
			if !s1.Contains(c) {
				return nil, fmt.Errorf("invariant grouping: aggregate argument %s not from the pushed side", c)
			}
		}
	}
	grouping := map[schema.ColID]bool{}
	for _, gc := range g.GroupCols {
		if !s1.Contains(gc) {
			return nil, fmt.Errorf("invariant grouping: grouping column %s not from the pushed side", gc)
		}
		grouping[gc] = true
	}
	for _, p := range j.Preds {
		for _, c := range expr.Columns(p) {
			if s1.Contains(c) && !grouping[c] {
				return nil, fmt.Errorf("invariant grouping: predicate column %s is not a grouping column", c)
			}
		}
	}
	key, ok := lplan.Key(r2)
	if !ok {
		return nil, fmt.Errorf("invariant grouping: no key derivable for the other side")
	}
	if !coversKey(j.Preds, s2, key) {
		return nil, fmt.Errorf("invariant grouping: join does not bind a key of the other side")
	}

	gPushed := &lplan.GroupBy{
		In:        r1,
		GroupCols: g.GroupCols,
		Aggs:      g.Aggs,
		Having:    g.Having,
		Method:    g.Method,
	}
	var jl, jr lplan.Node
	if pushLeft {
		jl, jr = gPushed, r2
	} else {
		jl, jr = r2, gPushed
	}
	j2 := &lplan.Join{L: jl, R: jr, Preds: j.Preds, Method: j.Method}

	var result lplan.Node
	if len(g.Outputs) == 0 {
		// Drop the R2 columns so the schema matches g's.
		proj := make([]schema.ColID, 0, len(g.GroupCols)+len(g.Aggs))
		proj = append(proj, g.GroupCols...)
		for _, a := range g.Aggs {
			proj = append(proj, a.Out)
		}
		result = &lplan.Join{L: jl, R: jr, Preds: j.Preds, Proj: proj, Method: j.Method}
	} else {
		result = &lplan.Project{In: j2, Items: g.Outputs}
	}
	if err := lplan.Validate(result); err != nil {
		return nil, fmt.Errorf("invariant grouping: produced an illegal tree: %w", err)
	}
	return result, nil
}
