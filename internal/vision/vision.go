// Package vision generates the synthetic labeled vehicle imagery that
// substitutes for the paper's training data (the Stanford car dataset plus
// crawled images: "32,000 images for 400 classes", §IV.A.1). Each class is a
// parametric vehicle archetype — body proportions and a three-channel paint
// color — rendered into small tensors with sensor noise, so that trained
// models face a real accuracy gradient: classes with similar parameters are
// genuinely harder to separate, and a deeper model measurably beats a
// shallow one.
package vision

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/detect"
	"repro/internal/tensor"
)

// ErrBadConfig reports invalid generator parameters.
var ErrBadConfig = errors.New("vision: invalid configuration")

// Class is one vehicle archetype.
type Class struct {
	ID    int
	Make  string
	Model string
	// BodyW/BodyH are the vehicle's footprint as a fraction of image size.
	BodyW, BodyH float64
	// Color is the per-channel paint intensity in [0.3, 1].
	Color [3]float64
}

var makes = []string{
	"Acadia", "Bayou", "Cypress", "Delta", "Evangeline", "Fleur",
	"Gulf", "Heron", "Iberville", "Jolie", "Kisatchie", "Lafitte",
	"Magnolia", "Natchez", "Oak", "Pelican", "Quarter", "Red-Stick",
	"Saline", "Tchoupitoulas",
}

var models = []string{
	"Sedan", "Coupe", "SUV", "Pickup", "Van", "Wagon", "Hatchback",
	"Roadster", "Crossover", "Limousine",
}

// Catalog builds n deterministic vehicle classes (n ≤ 400 recommended; the
// paper's dataset has 400).
func Catalog(n int, rng *rand.Rand) ([]Class, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d classes", ErrBadConfig, n)
	}
	out := make([]Class, n)
	for i := range out {
		out[i] = Class{
			ID:    i,
			Make:  makes[i%len(makes)],
			Model: models[(i/len(makes))%len(models)],
			BodyW: 0.35 + 0.4*rng.Float64(),
			BodyH: 0.18 + 0.22*rng.Float64(),
			Color: [3]float64{
				0.3 + 0.7*rng.Float64(),
				0.3 + 0.7*rng.Float64(),
				0.3 + 0.7*rng.Float64(),
			},
		}
	}
	return out, nil
}

// Name returns a human-readable class name.
func (c Class) Name() string { return fmt.Sprintf("%s %s #%d", c.Make, c.Model, c.ID) }

// renderVehicle draws one vehicle of the class into img ([3,H,W]) with its
// body centered at (cx, cy) in normalized coordinates, returning the box.
func renderVehicle(img *tensor.Tensor, cls Class, cx, cy float64, rng *rand.Rand) detect.Box {
	size := img.Dim(1)
	w := int(cls.BodyW * float64(size))
	h := int(cls.BodyH * float64(size))
	if w < 3 {
		w = 3
	}
	if h < 3 {
		h = 3
	}
	x0 := int(cx*float64(size)) - w/2
	y0 := int(cy*float64(size)) - h/2
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	// Body.
	for ch := 0; ch < 3; ch++ {
		base := cls.Color[ch]
		for y := clamp(y0, size-1); y <= clamp(y0+h-1, size-1); y++ {
			for x := clamp(x0, size-1); x <= clamp(x0+w-1, size-1); x++ {
				img.Set(base+0.05*rng.NormFloat64(), ch, y, x)
			}
		}
		// Cabin: lighter stripe across the top third.
		for y := clamp(y0, size-1); y <= clamp(y0+h/3, size-1); y++ {
			for x := clamp(x0+w/4, size-1); x <= clamp(x0+3*w/4, size-1); x++ {
				img.Set(min(1, base*1.3)+0.05*rng.NormFloat64(), ch, y, x)
			}
		}
	}
	// Wheels: two dark blobs along the bottom edge (all channels).
	wy := clamp(y0+h-1, size-1)
	for _, wx := range []int{clamp(x0+w/5, size-1), clamp(x0+4*w/5, size-1)} {
		for ch := 0; ch < 3; ch++ {
			img.Set(0.05, ch, wy, wx)
			if wy+1 < size {
				img.Set(0.05, ch, wy+1, wx)
			}
		}
	}
	return detect.Box{
		CX: cx, CY: cy,
		W: float64(w) / float64(size),
		H: float64(h) / float64(size),
	}
}

// backgroundNoise fills an image with low-intensity road texture.
func backgroundNoise(img *tensor.Tensor, rng *rand.Rand) {
	d := img.Data()
	for i := range d {
		d[i] = 0.1 + 0.03*rng.NormFloat64()
	}
}

// DetectionSet is a labeled detection dataset.
type DetectionSet struct {
	Images *tensor.Tensor // [N, 3, size, size]
	Truths [][]detect.GroundTruth
}

// GenerateDetection renders n single-vehicle frames at random positions.
func GenerateDetection(catalog []Class, n, size int, rng *rand.Rand) (*DetectionSet, error) {
	if n <= 0 || size < 8 {
		return nil, fmt.Errorf("%w: n=%d size=%d", ErrBadConfig, n, size)
	}
	images := tensor.New(n, 3, size, size)
	truths := make([][]detect.GroundTruth, n)
	imgLen := 3 * size * size
	for i := 0; i < n; i++ {
		img, err := tensor.FromSlice(images.Data()[i*imgLen:(i+1)*imgLen], 3, size, size)
		if err != nil {
			return nil, err
		}
		backgroundNoise(img, rng)
		cls := catalog[rng.Intn(len(catalog))]
		cx := 0.3 + 0.4*rng.Float64()
		cy := 0.3 + 0.4*rng.Float64()
		box := renderVehicle(img, cls, cx, cy, rng)
		truths[i] = []detect.GroundTruth{{Box: box, Class: cls.ID}}
	}
	return &DetectionSet{Images: images, Truths: truths}, nil
}

// ClassificationSet is a labeled classification dataset (vehicle centered).
type ClassificationSet struct {
	Images *tensor.Tensor // [N, 3, size, size]
	Labels []int
}

// GenerateClassification renders n centered vehicle crops, label-balanced
// across the catalog.
func GenerateClassification(catalog []Class, n, size int, rng *rand.Rand) (*ClassificationSet, error) {
	if n <= 0 || size < 8 {
		return nil, fmt.Errorf("%w: n=%d size=%d", ErrBadConfig, n, size)
	}
	images := tensor.New(n, 3, size, size)
	labels := make([]int, n)
	imgLen := 3 * size * size
	for i := 0; i < n; i++ {
		img, err := tensor.FromSlice(images.Data()[i*imgLen:(i+1)*imgLen], 3, size, size)
		if err != nil {
			return nil, err
		}
		backgroundNoise(img, rng)
		cls := catalog[i%len(catalog)]
		renderVehicle(img, cls, 0.5+0.04*rng.NormFloat64(), 0.5+0.04*rng.NormFloat64(), rng)
		labels[i] = cls.ID
	}
	return &ClassificationSet{Images: images, Labels: labels}, nil
}
