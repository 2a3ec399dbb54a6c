package sqoop

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/rdbms"
)

func setup(t *testing.T, rows int) (*rdbms.Database, *hdfs.Cluster) {
	t.Helper()
	db := rdbms.NewDatabase()
	tb, err := db.CreateTable("crimes", []rdbms.Column{
		{Name: "id", Type: rdbms.IntCol},
		{Name: "kind", Type: rdbms.StringCol},
		{Name: "severity", Type: rdbms.FloatCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tb.Insert(rdbms.Row{int64(i), fmt.Sprintf("kind-%d", i%4), float64(i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	fs := hdfs.NewCluster(hdfs.Config{BlockSize: 512, Replication: 2}, rand.New(rand.NewSource(1)))
	for i := 0; i < 3; i++ {
		if err := fs.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, fs
}

func TestImportWritesPartFiles(t *testing.T) {
	db, fs := setup(t, 100)
	res, err := Import(db, fs, ImportConfig{Table: "crimes", SplitBy: "id", Mappers: 4, TargetDir: "/warehouse/crimes"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 100 {
		t.Fatalf("imported %d rows", res.Rows)
	}
	if len(res.PartFiles) != 4 {
		t.Fatalf("part files = %v", res.PartFiles)
	}
	for _, p := range res.PartFiles {
		if !fs.Exists(p) {
			t.Fatalf("missing part file %s", p)
		}
	}
	// Splits must cover [0, 100) contiguously.
	want := []Split{{0, 25}, {25, 50}, {50, 75}, {75, 100}}
	if !slices.Equal(res.Splits, want) {
		t.Fatalf("splits = %v, want %v", res.Splits, want)
	}
}

func TestImportPartFilesHoldEveryRow(t *testing.T) {
	db, fs := setup(t, 57)
	res, err := Import(db, fs, ImportConfig{Table: "crimes", SplitBy: "id", Mappers: 3, TargetDir: "/wh/c"})
	if err != nil {
		t.Fatal(err)
	}
	// Decode every part file's JSON lines; JSON erases ints to float64.
	var rows [][]any
	for _, p := range res.PartFiles {
		data, err := fs.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var rec rowRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("decode %s: %v", p, err)
			}
			rows = append(rows, rec.Values)
		}
	}
	if len(rows) != 57 {
		t.Fatalf("part files hold %d rows", len(rows))
	}
	// Spot check that row 10's values survived the trip.
	for _, r := range rows {
		if r[0].(float64) == 10 {
			if r[1].(string) != "kind-2" || r[2].(float64) != 5.0 {
				t.Fatalf("row = %v", r)
			}
			return
		}
	}
	t.Fatal("row 10 missing")
}

func TestImportMoreMappersThanKeys(t *testing.T) {
	db, fs := setup(t, 3)
	res, err := Import(db, fs, ImportConfig{Table: "crimes", SplitBy: "id", Mappers: 10, TargetDir: "/w"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3 {
		t.Fatalf("rows = %d", res.Rows)
	}
	if len(res.Splits) > 3 {
		t.Fatalf("splits = %d, should collapse to key span", len(res.Splits))
	}
}

func TestImportErrors(t *testing.T) {
	db, fs := setup(t, 5)
	if _, err := Import(db, fs, ImportConfig{Table: "crimes", SplitBy: "id", Mappers: 0, TargetDir: "/w"}); !errors.Is(err, ErrBadMappers) {
		t.Fatalf("mappers err = %v", err)
	}
	if _, err := Import(db, fs, ImportConfig{Table: "crimes", SplitBy: "id", Mappers: 2, TargetDir: "w"}); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("target err = %v", err)
	}
	if _, err := Import(db, fs, ImportConfig{Table: "nope", SplitBy: "id", Mappers: 2, TargetDir: "/w"}); !errors.Is(err, rdbms.ErrNoTable) {
		t.Fatalf("table err = %v", err)
	}
	if _, err := Import(db, fs, ImportConfig{Table: "crimes", SplitBy: "kind", Mappers: 2, TargetDir: "/w"}); !errors.Is(err, rdbms.ErrBadType) {
		t.Fatalf("split col err = %v", err)
	}
}

func TestComputeSplitsProperty(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		n      int
	}{{0, 99, 4}, {5, 5, 3}, {-10, 10, 7}, {0, 6, 7}, {1, 1000000, 13}} {
		splits := computeSplits(tc.lo, tc.hi, tc.n)
		if splits[0].Lo != tc.lo {
			t.Fatalf("%+v: first lo = %d", tc, splits[0].Lo)
		}
		if splits[len(splits)-1].Hi != tc.hi+1 {
			t.Fatalf("%+v: last hi = %d, want %d", tc, splits[len(splits)-1].Hi, tc.hi+1)
		}
		for i := 1; i < len(splits); i++ {
			if splits[i].Lo != splits[i-1].Hi {
				t.Fatalf("%+v: discontiguous at %d", tc, i)
			}
		}
	}
}

// TestComputeSplitsAreBalanced: split widths differ by at most one key, and
// a range narrower than the mapper count gets one split per key.
func TestComputeSplitsAreBalanced(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		n      int
	}{{0, 99, 4}, {0, 100, 4}, {-10, 10, 7}, {1, 1000000, 13}, {3, 5, 8}, {0, 9, 0}} {
		splits := computeSplits(tc.lo, tc.hi, tc.n)
		wantN := max(1, min(tc.n, int(tc.hi-tc.lo+1)))
		if len(splits) != wantN {
			t.Fatalf("%+v: %d splits, want %d", tc, len(splits), wantN)
		}
		lo, hi := splits[0].Hi-splits[0].Lo, splits[0].Hi-splits[0].Lo
		for _, s := range splits {
			lo, hi = min(lo, s.Hi-s.Lo), max(hi, s.Hi-s.Lo)
		}
		if lo < 1 || hi-lo > 1 {
			t.Fatalf("%+v: split widths range over [%d, %d]", tc, lo, hi)
		}
	}
}
