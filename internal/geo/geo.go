// Package geo provides the geospatial primitives used across the
// cyberinfrastructure: great-circle distance, geohash encoding, bounding
// boxes, a lat/lon grid with the conservative cell cover of a radius, and an
// in-memory grid index over it, supporting the "lightweight indexing and
// querying services for big spatial data" role the paper's software layer
// cites.
package geo

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadCoordinate is returned for out-of-range latitudes or longitudes.
var ErrBadCoordinate = errors.New("geo: coordinate out of range")

// EarthRadiusKm is the mean Earth radius used by distance computations.
const EarthRadiusKm = 6371.0

// Point is a WGS84 coordinate.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Validate checks coordinate ranges.
func (p Point) Validate() error {
	if p.Lat < -90 || p.Lat > 90 || p.Lon < -180 || p.Lon > 180 {
		return fmt.Errorf("%w: (%g, %g)", ErrBadCoordinate, p.Lat, p.Lon)
	}
	return nil
}

// HaversineKm returns the great-circle distance between two points in km.
func HaversineKm(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

const geohashBase32 = "0123456789bcdefghjkmnpqrstuvwxyz"

// EncodeGeohash returns the standard base-32 geohash of a point at the given
// character precision (1..12).
func EncodeGeohash(p Point, precision int) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	if precision < 1 || precision > 12 {
		return "", fmt.Errorf("%w: geohash precision %d", ErrBadCoordinate, precision)
	}
	latLo, latHi := -90.0, 90.0
	lonLo, lonHi := -180.0, 180.0
	var out []byte
	bit := 0
	ch := 0
	even := true
	for len(out) < precision {
		if even {
			mid := (lonLo + lonHi) / 2
			if p.Lon >= mid {
				ch |= 1 << (4 - bit)
				lonLo = mid
			} else {
				lonHi = mid
			}
		} else {
			mid := (latLo + latHi) / 2
			if p.Lat >= mid {
				ch |= 1 << (4 - bit)
				latLo = mid
			} else {
				latHi = mid
			}
		}
		even = !even
		if bit < 4 {
			bit++
		} else {
			out = append(out, geohashBase32[ch])
			bit, ch = 0, 0
		}
	}
	return string(out), nil
}

// DecodeGeohash returns the center point of a geohash cell.
func DecodeGeohash(hash string) (Point, error) {
	latLo, latHi := -90.0, 90.0
	lonLo, lonHi := -180.0, 180.0
	even := true
	for _, c := range hash {
		idx := -1
		for i := 0; i < len(geohashBase32); i++ {
			if rune(geohashBase32[i]) == c {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Point{}, fmt.Errorf("%w: geohash char %q", ErrBadCoordinate, c)
		}
		for bit := 4; bit >= 0; bit-- {
			set := idx&(1<<bit) != 0
			if even {
				mid := (lonLo + lonHi) / 2
				if set {
					lonLo = mid
				} else {
					lonHi = mid
				}
			} else {
				mid := (latLo + latHi) / 2
				if set {
					latLo = mid
				} else {
					latHi = mid
				}
			}
			even = !even
		}
	}
	return Point{Lat: (latLo + latHi) / 2, Lon: (lonLo + lonHi) / 2}, nil
}

// BBox is an axis-aligned bounding box.
type BBox struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Contains reports whether p falls inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Grid divides Box into Rows×Cols equal lat/lon cells, numbered row-major
// from the south-west corner. It holds no items: GridIndex stores values by
// its cells, and docstore keeps its geo postings by the cells of one global
// Grid. What a radius or a box means in cells is decided here, once.
type Grid struct {
	Box        BBox
	Rows, Cols int
}

func (g Grid) row(lat float64) int {
	r := int((lat - g.Box.MinLat) / (g.Box.MaxLat - g.Box.MinLat) * float64(g.Rows))
	return max(0, min(r, g.Rows-1))
}

func (g Grid) col(lon float64) int {
	c := int((lon - g.Box.MinLon) / (g.Box.MaxLon - g.Box.MinLon) * float64(g.Cols))
	return max(0, min(c, g.Cols-1))
}

// CellOf returns the cell holding p. A point outside Box counts towards the
// nearest edge cell, so every point has a cell.
func (g Grid) CellOf(p Point) int { return g.row(p.Lat)*g.Cols + g.col(p.Lon) }

// CellCover is a set of grid cells: a run of rows and, in each, a run of
// columns that may wrap round from the last column to the first (a cover
// that crosses the ±180° meridian). The zero value is empty.
type CellCover struct {
	cols      int
	rLo, rEnd int // rows [rLo, rEnd)
	cLo, cHi  int // columns cLo..cHi, or cLo..cols-1 and 0..cHi when cLo > cHi
}

func (g Grid) cover(latLo, latHi, lonLo, lonHi float64) CellCover {
	return CellCover{cols: g.Cols, rLo: g.row(latLo), rEnd: g.row(latHi) + 1, cLo: g.col(lonLo), cHi: g.col(lonHi)}
}

// Len returns the number of cells in the cover.
func (c CellCover) Len() int {
	width := c.cHi - c.cLo + 1
	if c.cLo > c.cHi {
		width += c.cols
	}
	return (c.rEnd - c.rLo) * width
}

// Contains reports whether a cell of the grid is in the cover.
func (c CellCover) Contains(cell int) bool {
	r, col := cell/c.cols, cell%c.cols
	if r < c.rLo || r >= c.rEnd {
		return false
	}
	if c.cLo > c.cHi {
		return col >= c.cLo || col <= c.cHi
	}
	return col >= c.cLo && col <= c.cHi
}

// Each calls visit for every cell in the cover, in ascending cell order.
func (c CellCover) Each(visit func(cell int)) {
	for r := c.rLo; r < c.rEnd; r++ {
		base := r * c.cols
		if c.cLo > c.cHi {
			for col := 0; col <= c.cHi; col++ {
				visit(base + col)
			}
			for col := c.cLo; col < c.cols; col++ {
				visit(base + col)
			}
			continue
		}
		for col := c.cLo; col <= c.cHi; col++ {
			visit(base + col)
		}
	}
}

// coverSlackRad widens a cap before it is turned into cells, so that a
// point HaversineKm rounds to just inside the radius is never in a cell
// the cover rounds to just outside it. HaversineKm is worst near the
// antipode, where one ulp under the square root is 3e-8 rad; 1e-6 rad is
// 6 m on the ground, nothing against a cell.
const coverSlackRad = 1e-6

// RadiusCover returns a conservative cover of the cap of radiusKm round
// center: every point p with HaversineKm(center, p) <= radiusKm has
// CellOf(p) in it. The cap spans center.Lat ± the angular radius; its
// widest meridians lie asin(sin(r/R)/cos(lat)) either side of the centre's,
// which is more than r/(R·cos(lat)) and much more at high latitude. A cap
// that reaches a pole takes every longitude, one that crosses ±180° wraps,
// and a centre that is not a coordinate covers the whole grid.
func (g Grid) RadiusCover(center Point, radiusKm float64) CellCover {
	if !(radiusKm >= 0) {
		return CellCover{} // negative or NaN: no distance is within it
	}
	delta := radiusKm/EarthRadiusKm*(1+1e-9) + coverSlackRad
	valid := center.Lat >= -90 && center.Lat <= 90 && center.Lon >= -180 && center.Lon <= 180
	if !valid || delta >= math.Pi {
		return g.cover(-90, 90, -180, 180)
	}
	deg := delta * 180 / math.Pi
	latLo, latHi := center.Lat-deg, center.Lat+deg
	// Short of a pole delta < π/2 − |lat|, so the ratio is below 1. asin is
	// ill-conditioned as it nears 1: a cap that close to a pole is taken to
	// reach it.
	ratio := math.Sin(delta) / math.Cos(center.Lat*math.Pi/180)
	if latLo <= -90 || latHi >= 90 || ratio >= 1-1e-6 {
		return g.cover(latLo, latHi, -180, 180)
	}
	w := math.Asin(ratio) * 180 / math.Pi
	lonLo, lonHi := center.Lon-w, center.Lon+w
	switch {
	case lonLo <= -180:
		lonLo += 360
	case lonHi >= 180:
		lonHi -= 360
	default:
		return g.cover(latLo, latHi, lonLo, lonHi)
	}
	c := g.cover(latLo, latHi, lonLo, lonHi)
	if c.cLo <= c.cHi+1 { // the two runs meet: every column
		c.cLo, c.cHi = 0, g.Cols-1
	}
	return c
}

// GridIndex is a uniform spatial grid over a bounding box, mapping cell →
// item ids. It supports box queries and radius queries, and is the storage
// substrate for camera placement, incident lookups, and geo-tagged tweets.
type GridIndex[T any] struct {
	grid  Grid
	cells map[int][]entry[T]
	count int
}

type entry[T any] struct {
	p Point
	v T
}

// NewGridIndex creates a rows×cols grid over box.
func NewGridIndex[T any](box BBox, rows, cols int) (*GridIndex[T], error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: grid %dx%d", ErrBadCoordinate, rows, cols)
	}
	if box.MinLat >= box.MaxLat || box.MinLon >= box.MaxLon {
		return nil, fmt.Errorf("%w: degenerate bbox %+v", ErrBadCoordinate, box)
	}
	return &GridIndex[T]{grid: Grid{Box: box, Rows: rows, Cols: cols}, cells: make(map[int][]entry[T])}, nil
}

// Insert adds a value at a point.
func (g *GridIndex[T]) Insert(p Point, v T) error {
	if err := p.Validate(); err != nil {
		return err
	}
	cell := g.grid.CellOf(p)
	g.cells[cell] = append(g.cells[cell], entry[T]{p: p, v: v})
	g.count++
	return nil
}

// Len returns the number of indexed items.
func (g *GridIndex[T]) Len() int { return g.count }

// QueryBox returns all values whose points fall inside box.
func (g *GridIndex[T]) QueryBox(box BBox) []T {
	var out []T
	g.grid.cover(box.MinLat, box.MaxLat, box.MinLon, box.MaxLon).Each(func(cell int) {
		for _, e := range g.cells[cell] {
			if box.Contains(e.p) {
				out = append(out, e.v)
			}
		}
	})
	return out
}

// Neighbor pairs a value with its distance from a query point.
type Neighbor[T any] struct {
	Value      T
	DistanceKm float64
}

// QueryRadius returns all values within radiusKm of center, sorted by
// ascending distance.
func (g *GridIndex[T]) QueryRadius(center Point, radiusKm float64) []Neighbor[T] {
	var out []Neighbor[T]
	g.grid.RadiusCover(center, radiusKm).Each(func(cell int) {
		for _, e := range g.cells[cell] {
			if d := HaversineKm(center, e.p); d <= radiusKm {
				out = append(out, Neighbor[T]{Value: e.v, DistanceKm: d})
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].DistanceKm < out[j].DistanceKm })
	return out
}
