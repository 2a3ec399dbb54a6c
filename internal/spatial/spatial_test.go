package spatial

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func testBox() geo.BBox {
	return geo.BBox{MinLat: 30.0, MaxLat: 31.0, MinLon: -92.0, MaxLon: -91.0}
}

func TestRasterCountsAndNormalizes(t *testing.T) {
	box := testBox()
	pts := []geo.Point{
		{Lat: 30.05, Lon: -91.95}, // cell (0,0) — twice
		{Lat: 30.05, Lon: -91.95},
		{Lat: 30.95, Lon: -91.05}, // cell (size-1, size-1) — once
		{Lat: 45.0, Lon: -91.5},   // outside box: ignored
	}
	img, err := Raster(pts, box, 4)
	if err != nil {
		t.Fatal(err)
	}
	if img.Dim(0) != 1 || img.Dim(1) != 4 || img.Dim(2) != 4 {
		t.Fatalf("raster shape %v", img.Shape())
	}
	if img.At(0, 0, 0) != 1.0 {
		t.Fatalf("hottest cell = %g, want 1 (normalized)", img.At(0, 0, 0))
	}
	if img.At(0, 3, 3) != 0.5 {
		t.Fatalf("single-event cell = %g, want 0.5", img.At(0, 3, 3))
	}
	if img.Sum() != 1.5 {
		t.Fatalf("total mass = %g", img.Sum())
	}
}

func TestRasterEdgeCases(t *testing.T) {
	if _, err := Raster(nil, testBox(), 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("size err = %v", err)
	}
	if _, err := Raster(nil, geo.BBox{}, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bbox err = %v", err)
	}
	// Empty input renders an all-zero raster without dividing by zero.
	img, err := Raster(nil, testBox(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if img.Sum() != 0 {
		t.Fatalf("empty raster mass = %g", img.Sum())
	}
	// Boundary points clamp into the last cell.
	img2, err := Raster([]geo.Point{{Lat: 31.0, Lon: -91.0}}, testBox(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if img2.At(0, 3, 3) != 1 {
		t.Fatal("max-corner point must clamp into the grid")
	}
}

func TestGenerateHotspotsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultHotspotConfig()
	s, err := GenerateHotspots(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Windows) != cfg.Windows || len(s.Dominant) != cfg.Windows {
		t.Fatalf("series sizes %d/%d", len(s.Windows), len(s.Dominant))
	}
	for i, d := range s.Dominant {
		if d < 0 || d >= cfg.Hotspots {
			t.Fatalf("window %d dominant = %d", i, d)
		}
	}
	// Persistence: consecutive windows usually share the dominant hotspot.
	same := 0
	for i := 1; i < len(s.Dominant); i++ {
		if s.Dominant[i] == s.Dominant[i-1] {
			same++
		}
	}
	if frac := float64(same) / float64(len(s.Dominant)-1); frac < 0.6 {
		t.Fatalf("persistence fraction = %g, generator should persist", frac)
	}
	if _, err := GenerateHotspots(HotspotConfig{}, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatasetAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultHotspotConfig()
	cfg.Windows = 10
	s, err := GenerateHotspots(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	images, labels, err := s.Dataset(8)
	if err != nil {
		t.Fatal(err)
	}
	if images.Dim(0) != 9 || len(labels) != 9 {
		t.Fatalf("dataset sizes %d/%d", images.Dim(0), len(labels))
	}
	for i, l := range labels {
		if l != s.Dominant[i+1] {
			t.Fatalf("label %d = %d, want next-window dominant %d", i, l, s.Dominant[i+1])
		}
	}
}

func TestMajorityBaseline(t *testing.T) {
	if got := MajorityBaseline([]int{0, 0, 1}); got != 2.0/3 {
		t.Fatalf("baseline = %g", got)
	}
	if got := MajorityBaseline(nil); got != 0 {
		t.Fatalf("empty baseline = %g", got)
	}
}

// TestRasterBinsThroughGridCellOf: every point inside the box adds one count
// to the pixel of the cell geo.Grid assigns it, before normalisation.
func TestRasterBinsThroughGridCellOf(t *testing.T) {
	box := testBox()
	const size = 7
	rng := rand.New(rand.NewSource(3))
	pts := make([]geo.Point, 400)
	for i := range pts {
		pts[i] = geo.Point{Lat: 29.9 + rng.Float64()*1.2, Lon: -92.1 + rng.Float64()*1.2}
	}
	img, err := Raster(pts, box, size)
	if err != nil {
		t.Fatal(err)
	}
	grid := geo.Grid{Box: box, Rows: size, Cols: size}
	counts := make([]float64, size*size)
	maxCount := 0.0
	for _, p := range pts {
		if !box.Contains(p) {
			continue
		}
		c := grid.CellOf(p)
		counts[c]++
		maxCount = max(maxCount, counts[c])
	}
	for c, n := range counts {
		if got, want := img.At(0, c/size, c%size), n/maxCount; math.Abs(got-want) > 1e-12 {
			t.Fatalf("pixel (%d, %d) = %g, want %g", c/size, c%size, got, want)
		}
	}
}
