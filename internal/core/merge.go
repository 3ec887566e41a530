package core

import (
	"fmt"

	"aggview/internal/expr"
	"aggview/internal/lplan"
	"aggview/internal/schema"
)

// mergeGroupBys combines two successive group-by operators into one (paper,
// Section 3: "Successive group-by operators can arise in the transformed
// query … Execution of such successive group-by operators can be combined
// under many circumstances").
//
// The supported circumstance is the coalescing chain: the outer group-by
// groups coarser than the inner one and each of its aggregates coalesces an
// inner aggregate —
//
//	SUM(SUM(x))   → SUM(x)      MIN(MIN(x)) → MIN(x)
//	SUM(COUNT(x)) → COUNT(x)    MAX(MAX(x)) → MAX(x)
//	SUM(COUNT(*)) → COUNT(*)
//
// Requirements: the inner group-by has no Having (its groups must not be
// filtered, or the merged aggregate would see different rows) and the
// outer grouping columns resolve (through the inner Outputs) to inner
// *grouping* columns. The merged operator keeps the outer Having/Outputs.
func mergeGroupBys(outer *lplan.GroupBy) (*lplan.GroupBy, error) {
	inner, ok := outer.In.(*lplan.GroupBy)
	if !ok {
		return nil, fmt.Errorf("merge group-bys: input is not a group-by")
	}
	if len(inner.Having) > 0 {
		return nil, fmt.Errorf("merge group-bys: inner group-by has a Having clause")
	}

	// Map inner output columns back to their definitions.
	outDef := map[schema.ColID]expr.Expr{}
	if len(inner.Outputs) == 0 {
		for _, gc := range inner.GroupCols {
			outDef[gc] = expr.ColOf(gc)
		}
		for _, a := range inner.Aggs {
			outDef[a.Out] = expr.ColOf(a.Out)
		}
	} else {
		for _, ne := range inner.Outputs {
			outDef[ne.As] = ne.E
		}
	}
	innerGrouping := map[schema.ColID]bool{}
	for _, gc := range inner.GroupCols {
		innerGrouping[gc] = true
	}
	innerAggByOut := map[schema.ColID]expr.Agg{}
	for _, a := range inner.Aggs {
		innerAggByOut[a.Out] = a
	}

	// Outer grouping columns must be inner grouping columns (via bare
	// column outputs).
	var mergedGroup []schema.ColID
	outerToInner := map[schema.ColID]expr.Expr{}
	for _, gc := range outer.GroupCols {
		def, okDef := outDef[gc]
		if !okDef {
			def = expr.ColOf(gc)
		}
		cr, isCol := def.(*expr.ColRef)
		if !isCol || !innerGrouping[cr.ID] {
			return nil, fmt.Errorf("merge group-bys: outer grouping column %s does not map to an inner grouping column", gc)
		}
		mergedGroup = append(mergedGroup, cr.ID)
		outerToInner[gc] = expr.ColOf(cr.ID)
	}

	// Outer aggregates must coalesce inner aggregates.
	var mergedAggs []expr.Agg
	for _, oa := range outer.Aggs {
		cr, isCol := oa.Arg.(*expr.ColRef)
		if oa.Arg != nil && !isCol {
			return nil, fmt.Errorf("merge group-bys: outer aggregate %s has a computed argument", oa)
		}
		var innerID schema.ColID
		if cr != nil {
			def, okDef := outDef[cr.ID]
			if !okDef {
				def = cr
			}
			dcr, isCol2 := def.(*expr.ColRef)
			if !isCol2 {
				return nil, fmt.Errorf("merge group-bys: outer aggregate %s argument is computed in the inner outputs", oa)
			}
			innerID = dcr.ID
		}
		ia, isAggOut := innerAggByOut[innerID]
		if !isAggOut {
			return nil, fmt.Errorf("merge group-bys: outer aggregate %s does not consume an inner aggregate", oa)
		}
		merged, err := coalescePair(oa.Kind, ia.Kind)
		if err != nil {
			return nil, err
		}
		mergedAggs = append(mergedAggs, expr.Agg{Kind: merged, Arg: ia.Arg, Out: oa.Out})
	}

	having := make([]expr.Expr, len(outer.Having))
	for i, h := range outer.Having {
		having[i] = expr.Substitute(h, outerToInner)
	}
	var outputs []lplan.NamedExpr
	for _, ne := range outer.Outputs {
		outputs = append(outputs, lplan.NamedExpr{E: expr.Substitute(ne.E, outerToInner), As: ne.As})
	}
	if len(outer.Outputs) == 0 && len(outer.GroupCols) > 0 {
		// Preserve the outer schema: grouping columns under their outer
		// names, then aggregate outputs.
		for i, gc := range outer.GroupCols {
			outputs = append(outputs, lplan.NamedExpr{E: expr.ColOf(mergedGroup[i]), As: gc})
		}
		for _, a := range mergedAggs {
			outputs = append(outputs, lplan.NamedExpr{E: expr.ColOf(a.Out), As: a.Out})
		}
	}

	merged := &lplan.GroupBy{
		In:        inner.In,
		GroupCols: mergedGroup,
		Aggs:      mergedAggs,
		Having:    having,
		Outputs:   outputs,
		Method:    outer.Method,
	}
	if err := lplan.Validate(merged); err != nil {
		return nil, fmt.Errorf("merge group-bys: produced an illegal tree: %w", err)
	}
	return merged, nil
}

// coalescePair returns the single aggregate equivalent to outer∘inner.
func coalescePair(outer, inner expr.AggKind) (expr.AggKind, error) {
	switch {
	case outer == expr.AggSum && inner == expr.AggSum:
		return expr.AggSum, nil
	case outer == expr.AggSum && inner == expr.AggCount:
		return expr.AggCount, nil
	case outer == expr.AggSum && inner == expr.AggCountStar:
		return expr.AggCountStar, nil
	case outer == expr.AggMin && inner == expr.AggMin:
		return expr.AggMin, nil
	case outer == expr.AggMax && inner == expr.AggMax:
		return expr.AggMax, nil
	default:
		return 0, fmt.Errorf("merge group-bys: %s of %s does not coalesce", outer, inner)
	}
}
