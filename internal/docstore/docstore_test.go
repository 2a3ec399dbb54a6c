package docstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/geo"
)

func TestInsertFindRoundTrip(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("tweets")
	id, err := col.Insert(Document{"text": "traffic jam on I-10", "retweets": 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := col.Find(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["text"] != "traffic jam on I-10" || got[0]["_id"] != id {
		t.Fatalf("docs = %v", got)
	}
}

func TestInsertIsolatesCallerMap(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	src := Document{"k": "v"}
	if _, err := col.Insert(src); err != nil {
		t.Fatal(err)
	}
	src["k"] = "mutated"
	d, _ := col.Find(Query{})
	if d[0]["k"] != "v" {
		t.Fatal("Insert must copy the document")
	}
	d[0]["k"] = "mutated2"
	d2, _ := col.Find(Query{})
	if d2[0]["k"] != "v" {
		t.Fatal("Find must return a copy")
	}
}

func TestFindEquality(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("crimes")
	for i := 0; i < 10; i++ {
		kind := "theft"
		if i%3 == 0 {
			kind = "robbery"
		}
		if _, err := col.Insert(Document{"kind": kind, "severity": i}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := col.Find(Query{Conditions: []Condition{Condition{Field: "kind", Eq: "robbery"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("found %d robberies", len(got))
	}
	for _, d := range got {
		if d["kind"] != "robbery" {
			t.Fatalf("wrong kind: %v", d)
		}
	}
}

func TestFindRangeAndConjunction(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("crimes")
	for i := 0; i < 20; i++ {
		kind := "theft"
		if i%2 == 0 {
			kind = "assault"
		}
		_, _ = col.Insert(Document{"kind": kind, "severity": i})
	}
	got, err := col.Find(Query{Conditions: []Condition{
		Condition{Field: "kind", Eq: "assault"},
		Range("severity", 5, 15),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// assaults have even severities; in [5,15] → 6,8,10,12,14 = 5 docs.
	if len(got) != 5 {
		t.Fatalf("found %d", len(got))
	}
	// Unbounded sides.
	ge, _ := col.Find(Query{Conditions: []Condition{Range("severity", 18, nil)}})
	if len(ge) != 2 {
		t.Fatalf("severity>=18: %d", len(ge))
	}
	le, _ := col.Find(Query{Conditions: []Condition{Range("severity", nil, 1)}})
	if len(le) != 2 {
		t.Fatalf("severity<=1: %d", len(le))
	}
}

func TestFindLimit(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	for i := 0; i < 10; i++ {
		_, _ = col.Insert(Document{"x": 1})
	}
	got, err := col.Find(Query{Conditions: []Condition{Condition{Field: "x", Eq: 1}}, Limit: 3})
	if err != nil || len(got) != 3 {
		t.Fatalf("limit query = %d docs, %v", len(got), err)
	}
}

func TestFindRejectsEmptyField(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	if _, err := col.Find(Query{Conditions: []Condition{Condition{Field: "", Eq: 1}}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v", err)
	}
}

func TestIndexUsedForEquality(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	for i := 0; i < 100; i++ {
		_, _ = col.Insert(Document{"city": fmt.Sprintf("city-%d", i%5)})
	}
	col.CreateIndex("city")
	got, err := col.Find(Query{Conditions: []Condition{Condition{Field: "city", Eq: "city-3"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("found %d", len(got))
	}
	st := col.Planner()
	if st.IndexedScans != 1 || st.FullScans != 0 {
		t.Fatalf("planner = %+v", st)
	}
	// Query on unindexed field falls back to full scan.
	_, _ = col.Find(Query{Conditions: []Condition{Condition{Field: "missing", Eq: 1}}})
	if st := col.Planner(); st.FullScans != 1 {
		t.Fatalf("planner after unindexed = %+v", st)
	}
}

func TestGeoQuery(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("incidents")
	col.CreateGeoIndex("loc")
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	no := geo.Point{Lat: 29.9511, Lon: -90.0715}
	if _, err := col.Insert(Document{"loc": map[string]any{"lat": br.Lat, "lon": br.Lon}, "city": "BR"}); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Insert(Document{"loc": no, "city": "NO"}); err != nil {
		t.Fatal(err)
	}
	near, err := col.Find(Query{Conditions: []Condition{GeoWithin("loc", br, 20)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(near) != 1 || near[0]["city"] != "BR" {
		t.Fatalf("near = %v", near)
	}
	wide, _ := col.Find(Query{Conditions: []Condition{GeoWithin("loc", br, 200)}})
	if len(wide) != 2 {
		t.Fatalf("wide = %d", len(wide))
	}
}

func TestGeoIndexRejectsBadCoordinates(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	col.CreateGeoIndex("loc")
	if _, err := col.Insert(Document{"loc": "not-a-point"}); !errors.Is(err, ErrBadGeo) {
		t.Fatalf("err = %v", err)
	}
}

func TestMixedTypeComparisonsNeverMatch(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	_, _ = col.Insert(Document{"v": "string"})
	got, err := col.Find(Query{Conditions: []Condition{Condition{Field: "v", Eq: 42}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("mixed-type eq matched: %v", got)
	}
}

func TestCollectionsListingAndCount(t *testing.T) {
	db := NewDatabase()
	db.Collection("b")
	db.Collection("a")
	names := db.Collections()
	if len(names) != 2 || names[0] != "a" {
		t.Fatalf("collections = %v", names)
	}
	col := db.Collection("a")
	_, _ = col.Insert(Document{})
	if col.Count() != 1 {
		t.Fatalf("count = %d", col.Count())
	}
	// Same name returns same collection.
	if db.Collection("a").Count() != 1 {
		t.Fatal("Collection must be idempotent")
	}
}

func TestNumericCoercionAcrossIntAndFloat(t *testing.T) {
	db := NewDatabase()
	col := db.Collection("c")
	_, _ = col.Insert(Document{"n": 5})
	got, err := col.Find(Query{Conditions: []Condition{Condition{Field: "n", Eq: 5.0}}})
	if err != nil || len(got) != 1 {
		t.Fatalf("int/float eq = %d docs, %v", len(got), err)
	}
}
