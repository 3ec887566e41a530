package core

import (
	"slices"

	"aggview/internal/expr"
	"aggview/internal/schema"
	"aggview/internal/stats"
)

// Equality equivalence classes ([LMS94]-style predicate inference, which
// the paper cites as complementary): column equalities are transitive, so
// a = b ∧ b = c implies a = c. The DP uses this two ways:
//
//   - derived equalities are synthesized for every in-class pair, so a
//     relation can join (or be pulled into a Φ) through an *implied*
//     predicate even when the query spells the chain differently;
//   - at each join step only a spanning forest of each class is applied —
//     an equality whose endpoints are already connected by applied
//     equalities is implied, so applying it again would be redundant work
//     and, worse, would double-count its selectivity.

// colDSU is a union-find over column ordinals (the cost model's column
// index), so a join step resets and runs it without hashing a column name.
type colDSU struct {
	parent []int32
}

// reset makes every ordinal below n its own class.
func (d *colDSU) reset(n int) {
	d.parent = slices.Grow(d.parent[:0], n)[:n]
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
}

func (d *colDSU) find(c int) int {
	for int(d.parent[c]) != c {
		d.parent[c] = d.parent[d.parent[c]] // path halving
		c = int(d.parent[c])
	}
	return c
}

func (d *colDSU) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d.parent[ra] = int32(rb)
	}
}

func (d *colDSU) connected(a, b int) bool { return d.find(a) == d.find(b) }

// bareEquality extracts the two column identities of a bare col = col
// conjunct (different relations), ok=false otherwise.
func bareEquality(e expr.Expr) (a, b schema.ColID, ok bool) {
	return expr.EquiJoin(e)
}

// addDerivedEqualities computes the equality classes of the conjunct list
// and appends synthesized equalities for in-class pairs that have no
// direct conjunct and whose columns live on different DP relations. The
// spanning-forest rule in prunedNewPreds keeps the redundancy harmless.
func addDerivedEqualities(conjs []dpConj, aliases aliasMasks, cols *stats.ColIndex) []dpConj {
	var dsu colDSU
	dsu.reset(cols.Len())
	have := map[[2]int]bool{}
	for _, c := range conjs {
		if !c.eq {
			continue
		}
		dsu.union(c.a, c.b)
		have[[2]int{c.a, c.b}] = true
		have[[2]int{c.b, c.a}] = true
	}
	if len(have) == 0 {
		return conjs
	}
	// Group members per class root, with deterministic ordering.
	type member struct {
		id  schema.ColID
		ord int
	}
	classes := map[int][]member{}
	var order []int
	for _, c := range conjs {
		if !c.eq {
			continue
		}
		a, b, _ := bareEquality(c.e)
		for _, m := range []member{{a, c.a}, {b, c.b}} {
			root := dsu.find(m.ord)
			if slices.Contains(classes[root], m) {
				continue
			}
			if len(classes[root]) == 0 {
				order = append(order, root)
			}
			classes[root] = append(classes[root], m)
		}
	}
	out := conjs
	for _, root := range order {
		cls := classes[root]
		for i := 0; i < len(cls); i++ {
			for j := i + 1; j < len(cls); j++ {
				a, b := cls[i], cls[j]
				if have[[2]int{a.ord, b.ord}] {
					continue
				}
				ma, okA := aliases.of(a.id.Rel)
				mb, okB := aliases.of(b.id.Rel)
				if !okA || !okB || ma == mb {
					continue // same relation or unknown alias: nothing to derive
				}
				out = append(out, dpConj{
					e:       expr.NewCmp(expr.EQ, expr.ColOf(a.id), expr.ColOf(b.id)),
					mask:    ma | mb,
					derived: true,
					eq:      true,
					a:       a.ord,
					b:       b.ord,
					am:      ma,
					bm:      mb,
				})
			}
		}
	}
	return out
}

// prunedNewPreds returns, for a join of prev with r, the applicable new
// conjuncts of dp.conjs with redundant equalities
// removed: equalities whose endpoints are already connected by equalities
// applied inside either input (or by earlier-kept equalities of this step)
// are implied and skipped. The result is a scratch slice, valid until the
// next call.
func (dp *blockDP) prunedNewPreds(prev, rmask uint64) []*dpConj {
	joined := prev | rmask
	dsu := &dp.dsu
	dsu.reset(dp.model.Cols().Len())
	// Seed with equalities already applied inside either side.
	for i := range dp.conjs {
		if c := &dp.conjs[i]; c.eq && (c.mask&^prev == 0 || c.mask&^rmask == 0) {
			dsu.union(c.a, c.b)
		}
	}
	out := dp.conjBuf[:0]
	for i := range dp.conjs {
		c := &dp.conjs[i]
		if c.mask&^joined != 0 {
			continue // touches relations not yet joined
		}
		if c.mask&rmask == 0 || c.mask&prev == 0 {
			continue // fully inside one side: already applied (or at a leaf)
		}
		if c.eq {
			if dsu.connected(c.a, c.b) {
				continue // implied by the spanning forest
			}
			dsu.union(c.a, c.b)
		}
		out = append(out, c)
	}
	dp.conjBuf = out
	return out
}
