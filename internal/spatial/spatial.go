// Package spatial implements the paper's §III.A claim that "geospatial data
// ... can be viewed as geospatial 'images' and analyzed using CNNs":
// rasterization of point events (crimes, 911 calls) into grid images, a
// generator of hotspot-structured crime series with persistent spatial
// clusters, and helpers for next-window hotspot prediction.
package spatial

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/tensor"
)

// ErrBadConfig reports invalid parameters.
var ErrBadConfig = errors.New("spatial: invalid configuration")

// Raster counts events into a Size×Size grid over box and normalizes to
// [0, 1] by the max cell, returning a [1, Size, Size] image tensor.
func Raster(points []geo.Point, box geo.BBox, size int) (*tensor.Tensor, error) {
	if size < 2 {
		return nil, fmt.Errorf("%w: raster size %d", ErrBadConfig, size)
	}
	if box.MinLat >= box.MaxLat || box.MinLon >= box.MaxLon {
		return nil, fmt.Errorf("%w: degenerate bbox", ErrBadConfig)
	}
	img := tensor.New(1, size, size)
	grid := geo.Grid{Box: box, Rows: size, Cols: size}
	maxCount := 0.0
	for _, p := range points {
		if !box.Contains(p) {
			continue
		}
		cell := grid.CellOf(p)
		y, x := cell/size, cell%size
		v := img.At(0, y, x) + 1
		img.Set(v, 0, y, x)
		if v > maxCount {
			maxCount = v
		}
	}
	if maxCount > 0 {
		img.Scale(1 / maxCount)
	}
	return img, nil
}

// HotspotConfig parameterizes the clustered crime series generator.
type HotspotConfig struct {
	Windows        int // number of time windows
	EventsPerWin   int
	Hotspots       int     // persistent cluster count
	HotspotStd     float64 // spatial spread of each cluster, degrees
	BackgroundFrac float64 // fraction of uniform background events
	Box            geo.BBox
}

// DefaultHotspotConfig covers metro Baton Rouge.
func DefaultHotspotConfig() HotspotConfig {
	return HotspotConfig{
		Windows: 40, EventsPerWin: 120, Hotspots: 3,
		HotspotStd: 0.015, BackgroundFrac: 0.25,
		Box: geo.BBox{MinLat: 30.30, MaxLat: 30.60, MinLon: -91.35, MaxLon: -91.00},
	}
}

// HotspotSeries is a sequence of event windows plus, per window, the label
// of the dominant hotspot (the prediction target).
type HotspotSeries struct {
	Cfg     HotspotConfig
	Windows [][]geo.Point
	// Dominant[i] is the hotspot index that produced the most events in
	// window i.
	Dominant []int
}

// GenerateHotspots produces a clustered event series. Each window, one
// hotspot is "active" (drawn with persistence: the active hotspot repeats
// with probability 0.8) and receives the bulk of clustered events, so the
// dominant hotspot of window t+1 is predictable from window t's raster —
// the learnable structure the CNN exploits.
func GenerateHotspots(cfg HotspotConfig, rng *rand.Rand) (*HotspotSeries, error) {
	if cfg.Windows < 2 || cfg.EventsPerWin < cfg.Hotspots || cfg.Hotspots < 2 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	centers := make([]geo.Point, cfg.Hotspots)
	for i := range centers {
		centers[i] = geo.Point{
			Lat: cfg.Box.MinLat + (0.2+0.6*rng.Float64())*(cfg.Box.MaxLat-cfg.Box.MinLat),
			Lon: cfg.Box.MinLon + (0.2+0.6*rng.Float64())*(cfg.Box.MaxLon-cfg.Box.MinLon),
		}
	}
	s := &HotspotSeries{Cfg: cfg}
	active := rng.Intn(cfg.Hotspots)
	for w := 0; w < cfg.Windows; w++ {
		if rng.Float64() > 0.8 {
			active = rng.Intn(cfg.Hotspots)
		}
		var events []geo.Point
		counts := make([]int, cfg.Hotspots)
		for e := 0; e < cfg.EventsPerWin; e++ {
			if rng.Float64() < cfg.BackgroundFrac {
				events = append(events, geo.Point{
					Lat: cfg.Box.MinLat + rng.Float64()*(cfg.Box.MaxLat-cfg.Box.MinLat),
					Lon: cfg.Box.MinLon + rng.Float64()*(cfg.Box.MaxLon-cfg.Box.MinLon),
				})
				continue
			}
			h := active
			if rng.Float64() < 0.3 { // minority share for other hotspots
				h = rng.Intn(cfg.Hotspots)
			}
			counts[h]++
			events = append(events, geo.Point{
				Lat: centers[h].Lat + cfg.HotspotStd*rng.NormFloat64(),
				Lon: centers[h].Lon + cfg.HotspotStd*rng.NormFloat64(),
			})
		}
		dominant := 0
		for i, c := range counts {
			if c > counts[dominant] {
				dominant = i
			}
		}
		s.Windows = append(s.Windows, events)
		s.Dominant = append(s.Dominant, dominant)
	}
	return s, nil
}

// Dataset rasterizes the series into (current-window image, next-window
// dominant hotspot) training pairs.
func (s *HotspotSeries) Dataset(size int) (*tensor.Tensor, []int, error) {
	n := len(s.Windows) - 1
	if n < 1 {
		return nil, nil, fmt.Errorf("%w: %d windows", ErrBadConfig, len(s.Windows))
	}
	images := tensor.New(n, 1, size, size)
	labels := make([]int, n)
	imgLen := size * size
	for i := 0; i < n; i++ {
		img, err := Raster(s.Windows[i], s.Cfg.Box, size)
		if err != nil {
			return nil, nil, err
		}
		copy(images.Data()[i*imgLen:(i+1)*imgLen], img.Data())
		labels[i] = s.Dominant[i+1]
	}
	return images, labels, nil
}

// MajorityBaseline returns the accuracy of always predicting the most
// common label — the bar a spatial model must clear.
func MajorityBaseline(labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	counts := make(map[int]int)
	best := 0
	for _, l := range labels {
		counts[l]++
		if counts[l] > best {
			best = counts[l]
		}
	}
	return float64(best) / float64(len(labels))
}
