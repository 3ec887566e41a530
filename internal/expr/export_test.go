package expr

// AndAll conjoins a list of predicates; it returns nil for an empty list and
// the single element for a singleton.
func AndAll(preds []Expr) Expr {
	switch len(preds) {
	case 0:
		return nil
	case 1:
		return preds[0]
	default:
		return And(preds...)
	}
}
