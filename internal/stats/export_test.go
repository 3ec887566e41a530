package stats

import "aggview/internal/schema"

// Has reports whether the summary carries statistics for the column.
func (r *Relation) Has(id schema.ColID) bool {
	_, ok := r.find(id)
	return ok
}
