// Package storage implements the in-memory row store backing the simulated
// engines: heap tables with ordered secondary indexes, plus ANALYZE-style
// statistics collection feeding the catalog.
package storage

import (
	"fmt"
	"sort"
	"strings"

	"uplan/internal/catalog"
	"uplan/internal/datum"
)

// Row is one stored tuple. Rows are addressed by stable integer row IDs;
// deleted rows leave tombstones so row IDs never shift.
//
// Stored rows are copy-on-write: Insert and Update store copies, Delete
// only tombstones, and nothing writes a stored row in place. The executor
// therefore hands stored rows to its callers without copying them, and a
// row read before a later UPDATE or DELETE keeps its values.
type Row []datum.D

// Table is one heap table with its secondary indexes.
type Table struct {
	Def     *catalog.Table
	rows    []Row
	deleted []bool
	live    int
	indexes map[string]*Index
}

// Index is an ordered secondary index: keys sorted ascending, each carrying
// the row IDs holding that key.
type Index struct {
	Def     *catalog.Index
	colIdx  []int // column ordinals in the table
	entries []indexEntry
}

type indexEntry struct {
	key   []datum.D
	rowID int
}

// DB is a named collection of tables sharing a schema catalog.
type DB struct {
	Schema *catalog.Schema
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{Schema: catalog.NewSchema(), tables: map[string]*Table{}}
}

// CreateTable creates a table from its definition.
func (db *DB) CreateTable(def *catalog.Table) (*Table, error) {
	if err := db.Schema.AddTable(def); err != nil {
		return nil, err
	}
	t := &Table{Def: def, indexes: map[string]*Index{}}
	db.tables[strings.ToLower(def.Name)] = t
	// A PRIMARY KEY column gets an implicit unique index, as in the studied
	// engines.
	for _, c := range def.Columns {
		if c.PrimaryKey {
			ix := &catalog.Index{
				Name:    def.Name + "_pkey",
				Table:   def.Name,
				Columns: []string{c.Name},
				Unique:  true,
				Primary: true,
			}
			if _, err := db.createIndexOn(t, ix); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) {
	db.Schema.DropTable(name)
	delete(db.tables, strings.ToLower(name))
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	return db.tables[strings.ToLower(name)]
}

// CreateIndex creates a secondary index on an existing table and backfills
// it from current rows.
func (db *DB) CreateIndex(def *catalog.Index) (*Index, error) {
	t := db.Table(def.Table)
	if t == nil {
		return nil, fmt.Errorf("storage: no such table %q", def.Table)
	}
	return db.createIndexOn(t, def)
}

func (db *DB) createIndexOn(t *Table, def *catalog.Index) (*Index, error) {
	key := strings.ToLower(def.Name)
	if _, ok := t.indexes[key]; ok {
		return nil, fmt.Errorf("storage: index %q already exists", def.Name)
	}
	var cols []int
	for _, c := range def.Columns {
		i := t.Def.ColumnIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("storage: index %q references unknown column %q", def.Name, c)
		}
		cols = append(cols, i)
	}
	ix := &Index{Def: def, colIdx: cols}
	for rowID, row := range t.rows {
		if t.deleted[rowID] {
			continue
		}
		if err := ix.insert(row, rowID); err != nil {
			return nil, err
		}
	}
	t.indexes[key] = ix
	t.Def.Indexes = append(t.Def.Indexes, def)
	return ix, nil
}

// Insert appends a copy of row; the row length must match the table's column count.
// Unique index violations are rejected.
func (t *Table) Insert(row Row) (int, error) {
	if len(row) != len(t.Def.Columns) {
		return 0, fmt.Errorf("storage: table %q expects %d values, got %d",
			t.Def.Name, len(t.Def.Columns), len(row))
	}
	for i, c := range t.Def.Columns {
		if c.NotNull && row[i].IsNull() {
			return 0, fmt.Errorf("storage: NULL in NOT NULL column %q.%q",
				t.Def.Name, c.Name)
		}
	}
	rowID := len(t.rows)
	for _, ix := range t.indexes {
		if ix.Def.Unique {
			key := ix.keyFor(row)
			if !keyHasNull(key) && len(ix.lookupEqual(key)) > 0 {
				return 0, fmt.Errorf("storage: unique violation on index %q", ix.Def.Name)
			}
		}
	}
	t.rows = append(t.rows, append(Row(nil), row...))
	t.deleted = append(t.deleted, false)
	t.live++
	for _, ix := range t.indexes {
		if err := ix.insert(t.rows[rowID], rowID); err != nil {
			return 0, err
		}
	}
	return rowID, nil
}

// Delete tombstones a row by ID.
func (t *Table) Delete(rowID int) {
	if rowID < 0 || rowID >= len(t.rows) || t.deleted[rowID] {
		return
	}
	t.deleted[rowID] = true
	t.live--
	for _, ix := range t.indexes {
		ix.remove(t.rows[rowID], rowID)
	}
}

// Update replaces the row stored at rowID with a copy of row; the old
// row's values are left untouched for any reader still holding it.
func (t *Table) Update(rowID int, row Row) error {
	if rowID < 0 || rowID >= len(t.rows) || t.deleted[rowID] {
		return fmt.Errorf("storage: no live row %d", rowID)
	}
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("storage: row width mismatch")
	}
	for _, ix := range t.indexes {
		ix.remove(t.rows[rowID], rowID)
	}
	t.rows[rowID] = append(Row(nil), row...)
	for _, ix := range t.indexes {
		if err := ix.insert(t.rows[rowID], rowID); err != nil {
			return err
		}
	}
	return nil
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.live }

// Scan calls fn for every live row in row-ID order; fn returning false
// stops the scan. The rows are the stored ones: fn must not modify them.
func (t *Table) Scan(fn func(rowID int, row Row) bool) {
	for id, row := range t.rows {
		if t.deleted[id] {
			continue
		}
		if !fn(id, row) {
			return
		}
	}
}

// Get returns the live row with the given ID; the caller must not modify
// it.
func (t *Table) Get(rowID int) (Row, bool) {
	if rowID < 0 || rowID >= len(t.rows) || t.deleted[rowID] {
		return nil, false
	}
	return t.rows[rowID], true
}

// Index returns the named index, or nil.
func (t *Table) Index(name string) *Index {
	return t.indexes[strings.ToLower(name)]
}

// Indexes returns all indexes on the table.
func (t *Table) Indexes() []*Index {
	out := make([]*Index, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}

func (ix *Index) keyFor(row Row) []datum.D {
	key := make([]datum.D, len(ix.colIdx))
	for i, c := range ix.colIdx {
		key[i] = row[c]
	}
	return key
}

func keyHasNull(key []datum.D) bool {
	for _, d := range key {
		if d.IsNull() {
			return true
		}
	}
	return false
}

func (ix *Index) insert(row Row, rowID int) error {
	key := ix.keyFor(row)
	pos := sort.Search(len(ix.entries), func(i int) bool {
		c := datum.CompareRows(ix.entries[i].key, key)
		if c != 0 {
			return c > 0
		}
		return ix.entries[i].rowID >= rowID
	})
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = indexEntry{key: key, rowID: rowID}
	return nil
}

func (ix *Index) remove(row Row, rowID int) {
	key := ix.keyFor(row)
	pos := sort.Search(len(ix.entries), func(i int) bool {
		c := datum.CompareRows(ix.entries[i].key, key)
		if c != 0 {
			return c > 0
		}
		return ix.entries[i].rowID >= rowID
	})
	if pos < len(ix.entries) && ix.entries[pos].rowID == rowID &&
		datum.CompareRows(ix.entries[pos].key, key) == 0 {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
}

func (ix *Index) lookupEqual(key []datum.D) []int {
	var ids []int
	start := sort.Search(len(ix.entries), func(i int) bool {
		return datum.CompareRows(ix.entries[i].key, key) >= 0
	})
	for i := start; i < len(ix.entries); i++ {
		if datum.CompareRows(ix.entries[i].key, key) != 0 {
			break
		}
		ids = append(ids, ix.entries[i].rowID)
	}
	return ids
}

// LookupEqual returns the row IDs whose full index key equals key.
func (ix *Index) LookupEqual(key []datum.D) []int { return ix.lookupEqual(key) }

// Range returns row IDs whose leading index column lies in [lo, hi]; nil
// bounds are open. Inclusive flags control boundary inclusion. Entries with
// NULL leading keys are skipped (SQL comparisons with NULL are unknown).
func (ix *Index) Range(lo, hi *datum.D, loInc, hiInc bool) []int {
	var ids []int
	for _, e := range ix.entries {
		k := e.key[0]
		if k.IsNull() {
			continue
		}
		if lo != nil {
			c, _ := datum.Compare(k, *lo)
			if c < 0 || c == 0 && !loInc {
				continue
			}
		}
		if hi != nil {
			c, _ := datum.Compare(k, *hi)
			if c > 0 || c == 0 && !hiInc {
				continue
			}
		}
		ids = append(ids, e.rowID)
	}
	return ids
}

// Len returns the number of index entries.
func (ix *Index) Len() int { return len(ix.entries) }

// ScanOrdered calls fn for all entries in key order.
func (ix *Index) ScanOrdered(fn func(key []datum.D, rowID int) bool) {
	for _, e := range ix.entries {
		if !fn(e.key, e.rowID) {
			return
		}
	}
}

// Analyze computes table statistics and installs them into the schema,
// mirroring the engines' ANALYZE command.
func (db *DB) Analyze(table string) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("storage: no such table %q", table)
	}
	stats := &catalog.TableStats{
		RowCount: t.live,
		Columns:  map[string]*catalog.ColumnStats{},
	}
	for ci, col := range t.Def.Columns {
		cs := &catalog.ColumnStats{Min: datum.Null(), Max: datum.Null()}
		distinct := map[string]bool{}
		var values []datum.D
		t.Scan(func(_ int, row Row) bool {
			v := row[ci]
			if v.IsNull() {
				cs.NullCount++
				return true
			}
			distinct[v.Key()] = true
			values = append(values, v)
			if cs.Min.IsNull() || datum.SortCompare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if cs.Max.IsNull() || datum.SortCompare(v, cs.Max) > 0 {
				cs.Max = v
			}
			return true
		})
		cs.Distinct = len(distinct)
		cs.Histogram = catalog.BuildHistogram(values, 32)
		stats.Columns[strings.ToLower(col.Name)] = cs
	}
	db.Schema.SetStats(table, stats)
	return nil
}

// AnalyzeAll runs Analyze on every table.
func (db *DB) AnalyzeAll() error {
	for _, t := range db.Schema.Tables() {
		if err := db.Analyze(t.Name); err != nil {
			return err
		}
	}
	return nil
}

// Clone produces a deep copy of the database (used by differential testing
// to run the same workload on independent engine instances).
func (db *DB) Clone() *DB {
	out := NewDB()
	for _, def := range db.Schema.Tables() {
		defCopy := &catalog.Table{Name: def.Name}
		defCopy.Columns = append([]catalog.Column(nil), def.Columns...)
		t, err := out.CreateTable(defCopy)
		if err != nil {
			panic(err) // fresh DB cannot conflict
		}
		src := db.Table(def.Name)
		src.Scan(func(_ int, row Row) bool {
			if _, err := t.Insert(row); err != nil {
				panic(err)
			}
			return true
		})
		for _, ixDef := range def.Indexes {
			if ixDef.Primary {
				continue // recreated by CreateTable
			}
			copyDef := &catalog.Index{
				Name: ixDef.Name, Table: ixDef.Table, Unique: ixDef.Unique,
				Columns: append([]string(nil), ixDef.Columns...),
			}
			if _, err := out.CreateIndex(copyDef); err != nil {
				panic(err)
			}
		}
	}
	return out
}
