// Package rdbms is a minimal in-memory relational store standing in for the
// "legacy database systems" the paper imports from with Apache Sqoop. It
// supports typed tables, predicate scans, and the min/max/range-split reads
// a Sqoop-style parallel importer needs.
package rdbms

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Sentinel errors.
var (
	ErrNoTable     = errors.New("rdbms: table not found")
	ErrTableExists = errors.New("rdbms: table already exists")
	ErrNoColumn    = errors.New("rdbms: column not found")
	ErrBadRow      = errors.New("rdbms: row does not match schema")
	ErrBadType     = errors.New("rdbms: value type does not match column")
)

// ColumnType enumerates supported column types.
type ColumnType int

const (
	// IntCol is a 64-bit integer column.
	IntCol ColumnType = iota + 1
	// FloatCol is a float64 column.
	FloatCol
	// StringCol is a string column.
	StringCol
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColumnType
}

// Row is one record, positionally matching the table schema.
type Row []any

// Table is a typed relational table. Safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	name    string
	columns []Column
	colIdx  map[string]int
	rows    []Row
}

// Database holds named tables.
type Database struct {
	mu     sync.Mutex
	tables map[string]*Table
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{tables: make(map[string]*Table)} }

// CreateTable registers a new table.
func (db *Database) CreateTable(name string, columns []Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	t := &Table{name: name, columns: append([]Column(nil), columns...), colIdx: make(map[string]int, len(columns))}
	for i, c := range columns {
		t.colIdx[c.Name] = i
	}
	db.tables[name] = t
	return t, nil
}

// Table looks up a table.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// Columns returns a copy of the schema.
func (t *Table) Columns() []Column { return append([]Column(nil), t.columns...) }

func checkType(v any, ct ColumnType) bool {
	switch ct {
	case IntCol:
		_, ok := v.(int64)
		if !ok {
			_, ok = v.(int)
		}
		return ok
	case FloatCol:
		_, ok := v.(float64)
		return ok
	case StringCol:
		_, ok := v.(string)
		return ok
	default:
		return false
	}
}

func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	default:
		return 0, false
	}
}

// Insert appends a row after validating it against the schema.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrBadRow, len(r), len(t.columns))
	}
	for i, v := range r {
		if !checkType(v, t.columns[i].Type) {
			return fmt.Errorf("%w: column %s", ErrBadType, t.columns[i].Name)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = append(t.rows, append(Row(nil), r...))
	return nil
}

// ColumnIndex resolves a column name.
func (t *Table) ColumnIndex(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoColumn, name)
	}
	return i, nil
}

// MinMaxInt returns the min and max of an integer column (for split-based
// parallel import). It errors on empty tables or non-int columns.
func (t *Table) MinMaxInt(column string) (minV, maxV int64, err error) {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return 0, 0, err
	}
	if t.columns[ci].Type != IntCol {
		return 0, 0, fmt.Errorf("%w: %s is not an int column", ErrBadType, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.rows) == 0 {
		return 0, 0, fmt.Errorf("%w: table %s is empty", ErrBadRow, t.name)
	}
	first, _ := asInt64(t.rows[0][ci])
	minV, maxV = first, first
	for _, r := range t.rows[1:] {
		v, _ := asInt64(r[ci])
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV, nil
}

// ScanIntRange returns rows with lo <= column < hi, ordered by the column.
func (t *Table) ScanIntRange(column string, lo, hi int64) ([]Row, error) {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if t.columns[ci].Type != IntCol {
		return nil, fmt.Errorf("%w: %s is not an int column", ErrBadType, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Row
	for _, r := range t.rows {
		v, _ := asInt64(r[ci])
		if v >= lo && v < hi {
			out = append(out, append(Row(nil), r...))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := asInt64(out[i][ci])
		b, _ := asInt64(out[j][ci])
		return a < b
	})
	return out, nil
}
