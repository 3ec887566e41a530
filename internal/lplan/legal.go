package lplan

import (
	"fmt"
	"slices"

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
		if scanResolves(t) {
			return nil
		}
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

	case *Input:
		return nil

	case *Join:
		if err := Validate(t.L); err != nil {
			return err
		}
		if err := Validate(t.R); err != nil {
			return err
		}
		// The concatenated input schema is built only to word an error.
		var in schema.Schema
		if !joinResolves(t) {
			in = t.L.Schema().Concat(t.R.Schema())
			for _, p := range t.Preds {
				if err := colsResolve(p, in); err != nil {
					return fmt.Errorf("join: predicate: %w", err)
				}
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
		if in != nil && t.Proj != nil {
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
		for i, a := range t.Aggs {
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
			if slices.ContainsFunc(t.Aggs[:i], func(b expr.Agg) bool { return b.Out == a.Out }) {
				return fmt.Errorf("group-by: duplicate aggregate output %s", a.Out)
			}
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
		if t.Desc != nil && len(t.Desc) != len(t.By) {
			return fmt.Errorf("sort: %d directions for %d keys", len(t.Desc), len(t.By))
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

// scanResolves reports whether every column the scan's filters and
// projection name is one of its table's columns under its alias, or its
// tuple id: the check Validate makes, without building the scan's schema.
func scanResolves(t *Scan) bool {
	resolves := func(id schema.ColID) bool {
		if id.Rel != "" && id.Rel != t.Alias {
			return false
		}
		if t.WithTID && id.Name == TIDColumn {
			return !t.Table.Schema.Contains(schema.ColID{Name: TIDColumn})
		}
		return t.Table.Schema.Contains(schema.ColID{Name: id.Name})
	}
	var buf expr.ColumnBuf
	for _, p := range t.Filter {
		for _, c := range expr.AppendColumns(buf[:0], p) {
			if !resolves(c) {
				return false
			}
		}
	}
	for _, c := range t.Proj {
		if !resolves(c) {
			return false
		}
	}
	return true
}

// joinResolves reports whether every column the join's predicates and
// projection name resolves in exactly one of its inputs' schemas, and there
// uniquely: the check Validate makes, without concatenating them.
func joinResolves(t *Join) bool {
	l, r := t.L.Schema(), t.R.Schema()
	resolves := func(id schema.ColID) bool {
		i, err := l.IndexOf(id)
		j, rerr := r.IndexOf(id)
		return err == nil && rerr == nil && (i >= 0) != (j >= 0)
	}
	var buf expr.ColumnBuf
	for _, p := range t.Preds {
		for _, c := range expr.AppendColumns(buf[:0], p) {
			if !resolves(c) {
				return false
			}
		}
	}
	for _, c := range t.Proj {
		if !resolves(c) {
			return false
		}
	}
	return true
}

func colsResolve(e expr.Expr, s schema.Schema) error {
	var buf expr.ColumnBuf
	for _, c := range expr.AppendColumns(buf[:0], e) {
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
