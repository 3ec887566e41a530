// Package schema defines column identities, tuple schemas and key metadata.
//
// A column is identified by the pair (Rel, Name) where Rel is the *relation
// instance* alias in a query (e.g. "e1", "e2" for two scans of emp). Using
// instance aliases rather than table names keeps self-joins — which the
// paper's Example 1 relies on — unambiguous throughout the optimizer.
package schema

import (
	"fmt"
	"strings"

	"aggview/internal/types"
)

// ColID names one column of one relation instance.
type ColID struct {
	Rel  string // relation instance alias; "" matches any unique column
	Name string // column name
}

// String renders the column as rel.name.
func (c ColID) String() string {
	if c.Rel == "" {
		return c.Name
	}
	return c.Rel + "." + c.Name
}

// Column describes one attribute of a schema.
type Column struct {
	ID   ColID
	Type types.Kind
}

// Schema is an ordered list of columns describing a tuple layout.
type Schema []Column

// String renders the schema as (a.x INT, b.y VARCHAR).
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%s %s", c.ID, c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// IndexOf resolves a column reference to its position. A reference with an
// empty Rel matches by name alone and must be unique. It returns -1 if the
// column is absent, and an error only on ambiguity.
func (s Schema) IndexOf(id ColID) (int, error) {
	found := -1
	for i, c := range s {
		if c.ID.Name != id.Name {
			continue
		}
		if id.Rel != "" && c.ID.Rel != id.Rel {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q (matches %s and %s)",
				id, s[found].ID, c.ID)
		}
		found = i
	}
	return found, nil
}

// Contains reports whether the schema resolves the reference unambiguously.
func (s Schema) Contains(id ColID) bool {
	i, err := s.IndexOf(id)
	return err == nil && i >= 0
}

// ColIDs returns the identities of all columns in order.
func (s Schema) ColIDs() []ColID {
	out := make([]ColID, len(s))
	for i, c := range s {
		out[i] = c.ID
	}
	return out
}

// Concat returns the concatenation of two schemas (join output layout).
func (s Schema) Concat(t Schema) Schema {
	out := make(Schema, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// Project returns the sub-schema selecting the given columns, in order.
func (s Schema) Project(ids []ColID) (Schema, error) {
	out := make(Schema, len(ids))
	for i, id := range ids {
		j, err := s.IndexOf(id)
		if err != nil {
			return nil, err
		}
		if j < 0 {
			return nil, fmt.Errorf("column %q not found in schema %s", id, s)
		}
		out[i] = s[j]
	}
	return out, nil
}

// AvgWidth returns the accounted average tuple width in bytes for cost and
// page-capacity estimation.
func (s Schema) AvgWidth() int {
	w := 4
	for _, c := range s {
		w += c.Type.Width()
	}
	return w
}

// Rename returns a copy of the schema with every column's Rel replaced.
func (s Schema) Rename(rel string) Schema {
	return s.AppendRenamed(make(Schema, 0, len(s)), rel)
}

// AppendRenamed appends the schema's columns to dst with every column's Rel
// replaced: Rename without a schema of its own.
func (s Schema) AppendRenamed(dst Schema, rel string) Schema {
	for _, c := range s {
		dst = append(dst, Column{ID: ColID{Rel: rel, Name: c.ID.Name}, Type: c.Type})
	}
	return dst
}

// Key is an ordered set of columns that functionally determines a relation's
// tuples (a candidate key).
type Key []ColID

// String renders the key as KEY(a, b).
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, c := range k {
		parts[i] = c.String()
	}
	return "KEY(" + strings.Join(parts, ", ") + ")"
}

// CoveredBy reports whether every key column appears in cols.
func (k Key) CoveredBy(cols []ColID) bool {
	for _, kc := range k {
		found := false
		for _, c := range cols {
			if c == kc {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ForeignKey records that Cols of the owning table reference RefCols of
// table RefTable. A declared foreign key is parsed, logged and checkpointed
// with its table, and the catalog checks that Cols are columns of it; no
// planning code reads it, and no write is checked against it. Pull-up skips
// a pulled relation's key when the equi-joins applied with it bind every
// key column (core's keyBound), declared foreign key or not.
type ForeignKey struct {
	Cols     []string // column names in the owning table
	RefTable string   // referenced table name
	RefCols  []string // referenced column names (a key of RefTable)
}
