package geo

import (
	"math"
	"sort"
	"testing"
)

// world is the shape docstore uses: the whole globe in 0.02° cells.
var world = Grid{Box: BBox{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180}, Rows: 9000, Cols: 18000}

// capCase is a cap chosen to sit on something the cell arithmetic can get
// wrong. The same list seeds FuzzRadiusCover.
type capCase struct {
	name     string
	center   Point
	radiusKm float64
}

var capCases = []capCase{
	{"city", batonRouge, 2},
	{"radius zero", batonRouge, 0},
	{"radius tiny", batonRouge, 1e-9},
	{"centre on a cell corner", Point{Lat: 30.44, Lon: -91.18}, 2},
	{"edge on a cell border", Point{Lat: 30.44, Lon: -91.18}, 0.02 * math.Pi / 180 * EarthRadiusKm},
	{"lat 60, 500 km", Point{Lat: 60, Lon: 10}, 500}, // half-width 9.02°, not 500/(111·cos 60°) = 9.009°
	{"lat 80, 900 km", Point{Lat: 80, Lon: -40}, 900},
	{"crosses +180", Point{Lat: 10, Lon: 179.99}, 5},
	{"crosses -180", Point{Lat: -20, Lon: -179.5}, 300},
	{"centre on +180", Point{Lat: 0, Lon: 180}, 2},
	{"centre on -180", Point{Lat: 0, Lon: -180}, 2},
	{"edge touches 180", Point{Lat: 0, Lon: 179}, math.Pi / 180 * EarthRadiusKm},
	{"over the north pole", Point{Lat: 89.5, Lon: 30}, 100},
	{"touches the north pole", Point{Lat: 89, Lon: 30}, math.Pi / 180 * EarthRadiusKm},
	{"just short of the pole", Point{Lat: 89, Lon: 30}, 111.19},
	{"centre on the south pole", Point{Lat: -90, Lon: 0}, 50},
	{"hemisphere", Point{Lat: 0, Lon: 0}, math.Pi / 2 * EarthRadiusKm},
	{"nearly everything", Point{Lat: 45, Lon: 90}, 20000},
	{"everything", Point{Lat: 45, Lon: 90}, 20100},
}

// destination returns the point distKm from c on the initial bearing given,
// longitude folded into [-180, 180].
func destination(c Point, bearingDeg, distKm float64) Point {
	lat1, th, d := c.Lat*math.Pi/180, bearingDeg*math.Pi/180, distKm/EarthRadiusKm
	sinLat2 := math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(th)
	lat2 := math.Asin(math.Max(-1, math.Min(1, sinLat2)))
	dLon := math.Atan2(math.Sin(th)*math.Sin(d)*math.Cos(lat1), math.Cos(d)-math.Sin(lat1)*sinLat2)
	lon := math.Mod(c.Lon+dLon*180/math.Pi+540, 360) - 180
	return Point{Lat: lat2 * 180 / math.Pi, Lon: lon}
}

// checkCovered fails when p is within the radius and its cell is not in
// the cover: the one thing a cover may never do.
func checkCovered(t *testing.T, g Grid, center Point, radiusKm float64, p Point) {
	t.Helper()
	if d := HaversineKm(center, p); d <= radiusKm && !g.RadiusCover(center, radiusKm).Contains(g.CellOf(p)) {
		t.Errorf("%dx%d grid: %+v is %g km from %+v, inside radius %g, but its cell %d is not in the cover",
			g.Rows, g.Cols, p, d, center, radiusKm, g.CellOf(p))
	}
}

func TestRadiusCoverHoldsTheCap(t *testing.T) {
	louisiana := Grid{Box: louisianaBox(), Rows: 64, Cols: 64}
	for _, tc := range capCases {
		for _, g := range []Grid{world, louisiana} {
			for bearing := 0.0; bearing < 360; bearing += 0.5 {
				for _, frac := range []float64{0, 0.5, 0.999999, 1} {
					checkCovered(t, g, tc.center, tc.radiusKm, destination(tc.center, bearing, frac*tc.radiusKm))
				}
			}
			// The same meridian under its other name, and both poles.
			for _, p := range []Point{{tc.center.Lat, 180}, {tc.center.Lat, -180}, {90, 0}, {-90, 77}} {
				checkCovered(t, g, tc.center, tc.radiusKm, p)
			}
			if t.Failed() {
				t.Fatalf("case %q", tc.name)
			}
		}
	}
}

// TestRadiusCoverIsACover pins the other side: Len, Contains and Each
// describe the same set, and a city-sized cap is a handful of cells, not the
// globe.
func TestRadiusCoverIsACover(t *testing.T) {
	for _, tc := range capCases {
		c := world.RadiusCover(tc.center, tc.radiusKm)
		if c.Len() > 1<<20 {
			continue // the set is checked on the small ones
		}
		var cells []int
		c.Each(func(cell int) {
			if !c.Contains(cell) {
				t.Errorf("%s: Each visits cell %d that Contains denies", tc.name, cell)
			}
			cells = append(cells, cell)
		})
		if len(cells) != c.Len() {
			t.Errorf("%s: Each visited %d cells, Len %d", tc.name, len(cells), c.Len())
		}
		if !sort.IntsAreSorted(cells) {
			t.Errorf("%s: Each is not in ascending cell order", tc.name)
		}
		for i := 1; i < len(cells); i++ {
			if cells[i] == cells[i-1] {
				t.Errorf("%s: cell %d visited twice", tc.name, cells[i])
			}
		}
	}
	if n := world.RadiusCover(batonRouge, 2).Len(); n < 4 || n > 16 {
		t.Errorf("2 km round Baton Rouge covers %d cells of 0.02°, want a 3×3 or 3×4 block", n)
	}
	if n := world.RadiusCover(Point{Lat: 10, Lon: 179.99}, 5).Len(); n > 100 {
		t.Errorf("5 km across the antimeridian covers %d cells: the wrap should be two short runs", n)
	}
	if n := world.RadiusCover(batonRouge, -1).Len(); n != 0 {
		t.Errorf("negative radius covers %d cells", n)
	}
	if n := world.RadiusCover(batonRouge, math.NaN()).Len(); n != 0 {
		t.Errorf("NaN radius covers %d cells", n)
	}
	if n := world.RadiusCover(Point{Lat: math.NaN(), Lon: 0}, 1).Len(); n != world.Rows*world.Cols {
		t.Errorf("NaN centre covers %d cells, want the grid", n)
	}
}

// TestGridIndexRadiusQueryBorders is QueryRadius against brute force on a
// whole-globe index, at the caps the old degree padding lost points on.
func TestGridIndexRadiusQueryBorders(t *testing.T) {
	globe := BBox{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180}
	idx, err := NewGridIndex[int](globe, 360, 720)
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, tc := range capCases {
		for bearing := 0.0; bearing < 360; bearing += 7.5 {
			for _, frac := range []float64{0, 0.6, 0.9999, 1.0001, 1.3} {
				pts = append(pts, destination(tc.center, bearing, frac*tc.radiusKm))
			}
		}
	}
	pts = append(pts, Point{0, 180}, Point{0, -180}, Point{90, 0}, Point{-90, 0}, Point{0.5, 0.5}, Point{-0.5, 179.5})
	for i, p := range pts {
		if err := idx.Insert(p, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range capCases {
		var want []int
		for i, p := range pts {
			if HaversineKm(tc.center, p) <= tc.radiusKm {
				want = append(want, i)
			}
		}
		var got []int
		for _, n := range idx.QueryRadius(tc.center, tc.radiusKm) {
			got = append(got, n.Value)
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Errorf("%s: QueryRadius found %d points, brute force %d", tc.name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: QueryRadius and brute force differ at %d: %d vs %d", tc.name, i, got[i], want[i])
				break
			}
		}
	}
}

// FuzzRadiusCover: for any centre and radius, a point the fuzzer places by
// bearing and fraction of the radius — so most inputs land inside the cap or
// on its edge, where the cover can be wrong — has its cell in the cover
// whenever HaversineKm puts it within the radius. Nothing panics on values
// that are not coordinates.
func FuzzRadiusCover(f *testing.F) {
	for _, tc := range capCases {
		for _, bearing := range []float64{0, 90, 180, 270, 63.7} {
			f.Add(tc.center.Lat, tc.center.Lon, tc.radiusKm, bearing, 1.0)
		}
	}
	f.Add(math.NaN(), 0.0, 1.0, 0.0, 1.0)
	f.Add(0.0, 1e300, math.Inf(1), 0.0, 1.0)
	louisiana := Grid{Box: louisianaBox(), Rows: 64, Cols: 64}
	f.Fuzz(func(t *testing.T, lat, lon, radiusKm, bearing, frac float64) {
		center := Point{Lat: lat, Lon: lon}
		for _, g := range []Grid{world, louisiana} {
			c := g.RadiusCover(center, radiusKm)
			if n := c.Len(); n < 0 || n > g.Rows*g.Cols {
				t.Fatalf("cover of %d cells in a grid of %d", n, g.Rows*g.Cols)
			}
		}
		if center.Validate() != nil || math.IsNaN(lat+lon+radiusKm+bearing+frac) || math.IsInf(bearing, 0) ||
			radiusKm < 0 || frac < 0 || frac > 1.000001 {
			return
		}
		dist := math.Min(frac*radiusKm, math.Pi*EarthRadiusKm)
		p := destination(center, bearing, dist)
		if p.Validate() != nil || math.IsNaN(p.Lat+p.Lon) {
			t.Fatalf("destination(%+v, %g, %g) = %+v", center, bearing, dist, p)
		}
		checkCovered(t, world, center, radiusKm, p)
		checkCovered(t, louisiana, center, radiusKm, p)
	})
}
