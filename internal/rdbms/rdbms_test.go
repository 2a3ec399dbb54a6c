package rdbms

import (
	"errors"
	"testing"
)

func crimeSchema() []Column {
	return []Column{
		{Name: "id", Type: IntCol},
		{Name: "kind", Type: StringCol},
		{Name: "severity", Type: FloatCol},
	}
}

func TestCreateAndLookup(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable("crimes", crimeSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("crimes", crimeSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup err = %v", err)
	}
	if _, err := db.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing err = %v", err)
	}
	tb, err := db.Table("crimes")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Columns()) != 3 {
		t.Fatalf("columns = %v", tb.Columns())
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDatabase()
	tb, _ := db.CreateTable("t", crimeSchema())
	if err := tb.Insert(Row{int64(1), "theft", 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{int64(1), "theft"}); !errors.Is(err, ErrBadRow) {
		t.Fatalf("arity err = %v", err)
	}
	if err := tb.Insert(Row{"oops", "theft", 0.5}); !errors.Is(err, ErrBadType) {
		t.Fatalf("type err = %v", err)
	}
	// Plain int accepted for IntCol.
	if err := tb.Insert(Row{2, "theft", 1.0}); err != nil {
		t.Fatal(err)
	}
	if rows, _ := tb.ScanIntRange("id", 0, 3); len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMinMaxIntAndRangeScan(t *testing.T) {
	db := NewDatabase()
	tb, _ := db.CreateTable("t", crimeSchema())
	for _, id := range []int64{7, 3, 11, 5} {
		_ = tb.Insert(Row{id, "x", 0.0})
	}
	lo, hi, err := tb.MinMaxInt("id")
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || hi != 11 {
		t.Fatalf("minmax = %d %d", lo, hi)
	}
	rows, err := tb.ScanIntRange("id", 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].(int64) != 5 || rows[1][0].(int64) != 7 {
		t.Fatalf("range = %v", rows)
	}
	if _, _, err := tb.MinMaxInt("kind"); !errors.Is(err, ErrBadType) {
		t.Fatalf("non-int minmax err = %v", err)
	}
	if _, _, err := tb.MinMaxInt("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("bad column err = %v", err)
	}
	empty, _ := db.CreateTable("empty", crimeSchema())
	if _, _, err := empty.MinMaxInt("id"); !errors.Is(err, ErrBadRow) {
		t.Fatalf("empty minmax err = %v", err)
	}
}
