package vision

import (
	"errors"
	"math/rand"
	"testing"
)

func TestCatalogDeterministicAndSized(t *testing.T) {
	a, err := Catalog(400, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Catalog(400, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 400 {
		t.Fatalf("catalog size = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalog not deterministic at %d", i)
		}
		if a[i].BodyW <= 0 || a[i].BodyH <= 0 {
			t.Fatalf("degenerate class %d: %+v", i, a[i])
		}
		for _, c := range a[i].Color {
			if c < 0.3 || c > 1 {
				t.Fatalf("color out of range: %+v", a[i])
			}
		}
	}
	if a[0].Name() == "" {
		t.Fatal("empty class name")
	}
	if _, err := Catalog(0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateDetectionShapesAndBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	catalog, _ := Catalog(10, rng)
	set, err := GenerateDetection(catalog, 20, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	if set.Images.Dim(0) != 20 || set.Images.Dim(1) != 3 || set.Images.Dim(2) != 16 {
		t.Fatalf("images shape %v", set.Images.Shape())
	}
	if len(set.Truths) != 20 {
		t.Fatalf("truths %d", len(set.Truths))
	}
	for i, truths := range set.Truths {
		if len(truths) != 1 {
			t.Fatalf("image %d has %d objects", i, len(truths))
		}
		b := truths[0].Box
		if b.CX < 0 || b.CX > 1 || b.CY < 0 || b.CY > 1 || b.W <= 0 || b.H <= 0 || b.W > 1 || b.H > 1 {
			t.Fatalf("bad box %+v", b)
		}
	}
	if _, err := GenerateDetection(catalog, 0, 16, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestVehiclePixelsBrighterThanBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	catalog, _ := Catalog(4, rng)
	set, err := GenerateDetection(catalog, 5, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b := set.Truths[i][0].Box
		size := 20
		cx, cy := int(b.CX*float64(size)), int(b.CY*float64(size))
		center := set.Images.At(i, 0, cy, cx)
		corner := set.Images.At(i, 0, 0, 0)
		if center <= corner {
			t.Fatalf("image %d: vehicle %g not brighter than background %g", i, center, corner)
		}
	}
}

func TestGenerateClassificationBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	catalog, _ := Catalog(5, rng)
	set, err := GenerateClassification(catalog, 50, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, l := range set.Labels {
		counts[l]++
	}
	for cls, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples", cls, n)
		}
	}
}

func TestPaperScaleDatasetGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation skipped in -short")
	}
	// The paper's dataset: 32,000 images, 400 classes. Generate at reduced
	// resolution to confirm the generator scales.
	rng := rand.New(rand.NewSource(5))
	catalog, err := Catalog(400, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := GenerateClassification(catalog, 32000, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if set.Images.Dim(0) != 32000 {
		t.Fatalf("images = %d", set.Images.Dim(0))
	}
	seen := make(map[int]bool)
	for _, l := range set.Labels {
		seen[l] = true
	}
	if len(seen) != 400 {
		t.Fatalf("classes represented = %d", len(seen))
	}
}
