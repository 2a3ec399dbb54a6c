package geo

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Baton Rouge and New Orleans, used throughout the paper's deployment.
var (
	batonRouge = Point{Lat: 30.4515, Lon: -91.1871}
	newOrleans = Point{Lat: 29.9511, Lon: -90.0715}
)

func TestHaversineKnownDistance(t *testing.T) {
	d := HaversineKm(batonRouge, newOrleans)
	// Real-world distance is ≈ 125 km.
	if d < 115 || d < 0 || d > 135 {
		t.Fatalf("BR→NO distance = %g km, want ≈ 125", d)
	}
	if HaversineKm(batonRouge, batonRouge) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

func TestHaversineSymmetryProperty(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		b := Point{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		d1, d2 := HaversineKm(a, b), HaversineKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPointValidate(t *testing.T) {
	tests := []struct {
		p  Point
		ok bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.NaN()}, false},
		{Point{math.Inf(1), 0}, false},
		{Point{0, math.Inf(-1)}, false},
	}
	for _, tt := range tests {
		err := tt.p.Validate()
		if tt.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", tt.p, err)
		}
		if !tt.ok && !errors.Is(err, ErrBadCoordinate) {
			t.Errorf("%+v: err = %v, want ErrBadCoordinate", tt.p, err)
		}
	}
}

func louisianaBox() BBox {
	return BBox{MinLat: 28.9, MaxLat: 33.1, MinLon: -94.1, MaxLon: -88.8}
}

func TestGridIndexInsertAndQuery(t *testing.T) {
	idx, err := NewGridIndex[string](louisianaBox(), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(batonRouge, "BR"); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(newOrleans, "NO"); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d", idx.Len())
	}
	got := idx.QueryRadius(batonRouge, 50)
	if len(got) != 1 || got[0].Value != "BR" {
		t.Fatalf("QueryRadius(50 km) = %v", got)
	}
	all := idx.QueryRadius(batonRouge, 150)
	if len(all) != 2 || all[1].Value != "NO" {
		t.Fatalf("QueryRadius(150 km) = %v", all)
	}
}

func TestGridIndexRadiusQuerySortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx, err := NewGridIndex[int](louisianaBox(), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	box := louisianaBox()
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
		if err := idx.Insert(pts[i], i); err != nil {
			t.Fatal(err)
		}
	}
	const radius = 50.0
	got := idx.QueryRadius(batonRouge, radius)
	// Brute-force reference.
	want := 0
	for _, p := range pts {
		if HaversineKm(batonRouge, p) <= radius {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("radius query found %d, brute force %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].DistanceKm < got[i-1].DistanceKm {
			t.Fatal("radius results not sorted by distance")
		}
	}
	for _, n := range got {
		if n.DistanceKm > radius {
			t.Fatalf("result at %g km exceeds radius", n.DistanceKm)
		}
	}
}

func TestGridIndexConstructionErrors(t *testing.T) {
	if _, err := NewGridIndex[int](louisianaBox(), 0, 5); !errors.Is(err, ErrBadCoordinate) {
		t.Fatalf("zero rows err = %v", err)
	}
	if _, err := NewGridIndex[int](BBox{MinLat: 1, MaxLat: 1, MinLon: 0, MaxLon: 1}, 4, 4); !errors.Is(err, ErrBadCoordinate) {
		t.Fatalf("degenerate box err = %v", err)
	}
}

func TestGridIndexInsertRejectsBadPoint(t *testing.T) {
	idx, _ := NewGridIndex[int](louisianaBox(), 4, 4)
	if err := idx.Insert(Point{Lat: 99, Lon: 0}, 1); !errors.Is(err, ErrBadCoordinate) {
		t.Fatalf("err = %v", err)
	}
}

func TestBBoxContains(t *testing.T) {
	b := louisianaBox()
	if !b.Contains(batonRouge) {
		t.Fatal("Baton Rouge should be in Louisiana")
	}
	if b.Contains(Point{Lat: 40.7, Lon: -74}) {
		t.Fatal("New York should not be in Louisiana")
	}
}

func TestGridCellOfIsRowMajorFromSouthWest(t *testing.T) {
	g := Grid{Box: BBox{MinLat: 0, MaxLat: 4, MinLon: 10, MaxLon: 16}, Rows: 4, Cols: 3}
	tests := []struct {
		p    Point
		cell int
	}{
		{Point{Lat: 0, Lon: 10}, 0},       // south-west corner
		{Point{Lat: 0.5, Lon: 15.9}, 2},   // last column of the first row
		{Point{Lat: 1.5, Lon: 10.1}, 3},   // second row starts at Cols
		{Point{Lat: 2.5, Lon: 13}, 7},     // row 2, col 1
		{Point{Lat: 4, Lon: 16}, 11},      // north-east corner clamps into the last cell
		{Point{Lat: 3.99, Lon: 11.99}, 9}, // just inside row 3, col 0
	}
	for _, tt := range tests {
		if got := g.CellOf(tt.p); got != tt.cell {
			t.Errorf("CellOf(%+v) = %d, want %d", tt.p, got, tt.cell)
		}
	}
}

func TestGridCellOfClampsOutsidePoints(t *testing.T) {
	g := Grid{Box: louisianaBox(), Rows: 8, Cols: 8}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		p := Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		cell := g.CellOf(p)
		if cell < 0 || cell >= g.Rows*g.Cols {
			t.Fatalf("CellOf(%+v) = %d outside [0, %d)", p, cell, g.Rows*g.Cols)
		}
		// The clamped cell is the one holding the nearest point of the box.
		near := Point{Lat: math.Max(g.Box.MinLat, math.Min(p.Lat, g.Box.MaxLat)), Lon: math.Max(g.Box.MinLon, math.Min(p.Lon, g.Box.MaxLon))}
		if want := g.CellOf(near); cell != want {
			t.Fatalf("CellOf(%+v) = %d, nearest box point %+v is in %d", p, cell, near, want)
		}
	}
}

func TestGridIndexQueryRadiusFindsCoincidentPoints(t *testing.T) {
	idx, err := NewGridIndex[int](louisianaBox(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := idx.Insert(batonRouge, i); err != nil {
			t.Fatal(err)
		}
	}
	got := idx.QueryRadius(batonRouge, 0)
	if len(got) != 3 {
		t.Fatalf("zero-radius query found %d of 3 coincident points", len(got))
	}
	for _, n := range got {
		if n.DistanceKm != 0 {
			t.Fatalf("coincident point at %g km", n.DistanceKm)
		}
	}
	if got := idx.QueryRadius(newOrleans, 1); len(got) != 0 {
		t.Fatalf("query away from every point found %v", got)
	}
}

func TestHaversineAntipodesAndQuarterCircle(t *testing.T) {
	half := math.Pi * EarthRadiusKm
	if d := HaversineKm(Point{Lat: 0, Lon: 0}, Point{Lat: 0, Lon: 180}); math.Abs(d-half) > 1e-6 {
		t.Fatalf("antipodes on the equator = %g km, want %g", d, half)
	}
	if d := HaversineKm(Point{Lat: 90, Lon: 0}, Point{Lat: -90, Lon: 0}); math.Abs(d-half) > 1e-6 {
		t.Fatalf("pole to pole = %g km, want %g", d, half)
	}
	if d := HaversineKm(Point{Lat: 0, Lon: 0}, Point{Lat: 90, Lon: 0}); math.Abs(d-half/2) > 1e-6 {
		t.Fatalf("equator to pole = %g km, want %g", d, half/2)
	}
}
