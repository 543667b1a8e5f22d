// Package bounds implements the cardinality-bounds oracle: static
// output-size upper bounds for select-project-join-union queries,
// derived from true table sizes and the catalog's key constraints in the
// spirit of intermediate relation size bounds for SPJU plans (Chen &
// Schneider; see PAPERS.md). An engine whose cardinality estimate
// exceeds the provable bound has an estimation defect no workload can
// excuse — a principled complement to CERT's monotonicity check, and one
// that still works on engines with only partial estimate exposure.
//
// The derivation rules are the classic SPJU inequalities:
//
//   - select:  σ(R) ≤ |R|
//   - project: π(R) ≤ |R| (bag semantics; with a retained key, also
//     under set semantics)
//   - join:    R ⋈ S ≤ |R|·|S|, and ≤ the non-key side when the join
//     equates a key of the other side
//   - union:   R ∪ S ≤ |R| + |S| (intersect ≤ min, except ≤ left)
//
// Because every non-join, non-union operator only shrinks its input,
// the rules compose into one number: the bound of the FROM/set-op
// algebra. Bound deliberately returns that plan-wide bound (no LIMIT
// tightening): the engine's surfaced estimate may belong to any node on
// the plan's root chain (core.Plan.RootCardinality walks below
// single-child operators on partial-exposure engines), and the FROM
// bound is the one number that provably caps every such node.
//
// Check compares one query's surfaced estimate against its bound, given
// the engine and the task's plan decoder; TaskOracle.Run applies the
// task's schema and hands one generated query per step to the task
// context's Loop.
package bounds

import (
	"strings"

	"uplan/internal/catalog"
	"uplan/internal/sql"
)

// Bound computes a provable output-size upper bound for the query over
// the schema's tables, statistics, and key constraints. The second
// result is false when no bound is provable: a table without collected
// statistics (its true size is unknown), a table missing from the
// catalog, or a FROM-less shape outside the SPJU fragment.
//
// The row counts come from catalog statistics, so the bound is only as
// true as the last ANALYZE; the bounds oracle runs against a freshly
// analyzed, unmutated schema where they are exact.
func Bound(sel *sql.Select, schema *catalog.Schema) (float64, bool) {
	if sel == nil || schema == nil {
		return 0, false
	}
	if sel.Compound != nil {
		l, lok := Bound(sel.Compound.Left, schema)
		r, rok := Bound(sel.Compound.Right, schema)
		if !lok || !rok {
			return 0, false
		}
		switch sel.Compound.Op {
		case sql.UnionOp, sql.UnionAllOp:
			return l + r, true
		case sql.IntersectOp:
			return min(l, r), true
		case sql.ExceptOp:
			return l, true
		}
		return 0, false
	}
	if sel.Core == nil {
		return 0, false
	}
	if sel.Core.From == nil {
		// FROM-less SELECT produces exactly one row; scalar aggregation
		// over any input produces one too, so 1 stays sound above it.
		return 1, true
	}
	return boundFrom(sel.Core.From, schema)
}

// boundFrom bounds a FROM-clause tree.
func boundFrom(ref sql.TableRef, schema *catalog.Schema) (float64, bool) {
	switch r := ref.(type) {
	case *sql.BaseTable:
		if schema.Table(r.Name) == nil || !schema.HasStats(r.Name) {
			return 0, false
		}
		return float64(schema.Stats(r.Name).RowCount), true
	case *sql.SubqueryRef:
		return Bound(r.Sub, schema)
	case *sql.JoinRef:
		return boundJoin(r, schema)
	}
	return 0, false
}

// boundJoin bounds a join: the product of the side bounds, reduced to
// the non-key side when an equi-condition equates a key column of a
// side that is a single base relation (each row of the other side then
// matches at most one of its rows). A LEFT join additionally emits
// unmatched left rows, unless the right side is keyed — then every left
// row appears exactly once, matched or padded.
func boundJoin(j *sql.JoinRef, schema *catalog.Schema) (float64, bool) {
	lb, lok := boundFrom(j.Left, schema)
	rb, rok := boundFrom(j.Right, schema)
	if !lok || !rok {
		return 0, false
	}
	inner := lb * rb
	rightKeyed := false
	if j.On != nil {
		lrels := relations(j.Left, schema, nil)
		rrels := relations(j.Right, schema, nil)
		for _, e := range conjuncts(j.On, nil) {
			b, ok := e.(*sql.Binary)
			if !ok || b.Op != sql.OpEq {
				continue
			}
			lc, lcok := b.L.(*sql.ColumnRef)
			rc, rcok := b.R.(*sql.ColumnRef)
			if !lcok || !rcok {
				continue
			}
			for _, pair := range [2][2]*sql.ColumnRef{{lc, rc}, {rc, lc}} {
				onLeft, onRight := pair[0], pair[1]
				lrel := ownerOf(onLeft, lrels)
				rrel := ownerOf(onRight, rrels)
				if lrel == nil || rrel == nil {
					continue
				}
				// The reduction is only sound when the keyed side is that
				// single relation: a key of one table inside a wider join
				// tree does not key the tree's row combinations.
				if len(lrels) == 1 && lrel.table.UniqueOn(onLeft.Name) {
					inner = min(inner, rb)
				}
				if len(rrels) == 1 && rrel.table.UniqueOn(onRight.Name) {
					inner = min(inner, lb)
					rightKeyed = true
				}
			}
		}
	}
	switch j.Type {
	case sql.JoinLeft:
		if rightKeyed {
			return lb, true
		}
		return inner + lb, true
	default: // inner, cross
		return inner, true
	}
}

// rel is one relation visible in a FROM subtree: its visible name
// (alias, or the table name) and its catalog definition (nil for
// derived tables, which expose no key constraints).
type rel struct {
	name  string
	table *catalog.Table
}

// relations collects the visible relations of a FROM subtree, resolving
// base tables against the catalog so aliased tables still expose keys.
func relations(ref sql.TableRef, schema *catalog.Schema, out []rel) []rel {
	switch r := ref.(type) {
	case *sql.BaseTable:
		name := r.Name
		if r.Alias != "" {
			name = r.Alias
		}
		return append(out, rel{name: name, table: schema.Table(r.Name)})
	case *sql.SubqueryRef:
		return append(out, rel{name: r.Alias, table: nil})
	case *sql.JoinRef:
		return relations(r.Right, schema, relations(r.Left, schema, out))
	}
	return out
}

// ownerOf resolves a column reference to the one relation that owns it,
// or nil when it is qualified with an unknown name, names a derived
// table (no key constraints), or is unqualified and ambiguous.
func ownerOf(cr *sql.ColumnRef, rels []rel) *rel {
	var found *rel
	for i := range rels {
		r := &rels[i]
		if cr.Table != "" {
			if strings.EqualFold(r.name, cr.Table) {
				if r.table == nil {
					return nil
				}
				return r
			}
			continue
		}
		if r.table != nil && r.table.ColumnIndex(cr.Name) >= 0 {
			if found != nil {
				return nil // ambiguous
			}
			found = r
		}
	}
	return found
}

// conjuncts splits an AND tree into its conjuncts.
func conjuncts(e sql.Expr, out []sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}
