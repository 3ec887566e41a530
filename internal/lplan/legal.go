package lplan

import (
	"fmt"

	"aggview/internal/expr"
	"aggview/internal/schema"
)

// Validate checks that the tree is a legal operator tree in the paper's
// sense (Section 2): every expression's columns resolve against the
// operator's input schema, grouping and aggregation columns come from the
// input, Having refers only to grouping columns and aggregate outputs, and
// projections select existing columns. It returns the first violation found.
func Validate(n Node) error {
	switch t := n.(type) {
	case *Scan:
		base := t.Table.Schema.Rename(t.Alias)
		if t.WithTID {
			base = append(base, schema.Column{ID: schema.ColID{Rel: t.Alias, Name: TIDColumn}})
		}
		for _, p := range t.Filter {
			if err := colsResolve(p, base); err != nil {
				return fmt.Errorf("scan %s: filter: %w", t.Alias, err)
			}
		}
		if t.Proj != nil {
			if _, err := base.Project(t.Proj); err != nil {
				return fmt.Errorf("scan %s: %w", t.Alias, err)
			}
		}
		return nil

	case *Join:
		if err := Validate(t.L); err != nil {
			return err
		}
		if err := Validate(t.R); err != nil {
			return err
		}
		in := t.L.Schema().Concat(t.R.Schema())
		for _, p := range t.Preds {
			if err := colsResolve(p, in); err != nil {
				return fmt.Errorf("join: predicate: %w", err)
			}
		}
		if t.Type == JoinRight {
			return fmt.Errorf("join: right outer joins must be normalized to left (swap inputs) before planning")
		}
		if t.Type.Outer() {
			// Only hash and block-NL implement null-padding; merge would
			// silently drop unmatched rows.
			switch t.Method {
			case JoinHash, JoinBlockNL, JoinUnset:
			default:
				return fmt.Errorf("join: %s outer join cannot use method %s (hash or block-nl only)", t.Type, t.Method)
			}
		}
		if t.Proj != nil {
			if _, err := in.Project(t.Proj); err != nil {
				return fmt.Errorf("join: %w", err)
			}
		}
		return nil

	case *GroupBy:
		if err := Validate(t.In); err != nil {
			return err
		}
		in := t.In.Schema()
		for _, gc := range t.GroupCols {
			i, err := in.IndexOf(gc)
			if err != nil {
				return fmt.Errorf("group-by: %w", err)
			}
			if i < 0 {
				return fmt.Errorf("group-by: grouping column %s not in input %s", gc, in)
			}
		}
		seenOut := map[schema.ColID]bool{}
		for _, a := range t.Aggs {
			if err := a.Check(); err != nil {
				return fmt.Errorf("group-by: aggregate %s: %w", a, err)
			}
			if a.Arg == nil && a.Kind != expr.AggCountStar {
				return fmt.Errorf("group-by: aggregate %s lacks an argument", a.Kind)
			}
			if a.Arg != nil {
				if err := colsResolve(a.Arg, in); err != nil {
					return fmt.Errorf("group-by: aggregate %s: %w", a, err)
				}
			}
			if seenOut[a.Out] {
				return fmt.Errorf("group-by: duplicate aggregate output %s", a.Out)
			}
			seenOut[a.Out] = true
		}
		inner := t.InnerSchema()
		for _, h := range t.Having {
			if err := colsResolve(h, inner); err != nil {
				return fmt.Errorf("group-by: having: %w", err)
			}
		}
		for _, ne := range t.Outputs {
			if err := colsResolve(ne.E, inner); err != nil {
				return fmt.Errorf("group-by: output %s: %w", ne, err)
			}
		}
		return nil

	case *Project:
		if err := Validate(t.In); err != nil {
			return err
		}
		in := t.In.Schema()
		for _, ne := range t.Items {
			if err := colsResolve(ne.E, in); err != nil {
				return fmt.Errorf("project: %s: %w", ne, err)
			}
		}
		return nil

	case *Filter:
		if err := Validate(t.In); err != nil {
			return err
		}
		in := t.In.Schema()
		for _, p := range t.Preds {
			if err := colsResolve(p, in); err != nil {
				return fmt.Errorf("filter: %w", err)
			}
		}
		return nil

	case *Sort:
		if err := Validate(t.In); err != nil {
			return err
		}
		in := t.In.Schema()
		for _, c := range t.By {
			i, err := in.IndexOf(c)
			if err != nil {
				return fmt.Errorf("sort: %w", err)
			}
			if i < 0 {
				return fmt.Errorf("sort: column %s not in input %s", c, in)
			}
		}
		return nil

	default:
		return fmt.Errorf("unknown plan node type %T", n)
	}
}

func colsResolve(e expr.Expr, s schema.Schema) error {
	for _, c := range expr.Columns(e) {
		i, err := s.IndexOf(c)
		if err != nil {
			return err
		}
		if i < 0 {
			return fmt.Errorf("column %s not in schema %s", c, s)
		}
	}
	return nil
}
