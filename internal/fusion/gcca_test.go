package fusion

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestGCCAValidation(t *testing.T) {
	if _, err := GCCA(nil, 1, 1e-3); !errors.Is(err, ErrNumeric) {
		t.Fatalf("no views err = %v", err)
	}
	one := [][][]float64{{{1, 2}}}
	if _, err := GCCA(one, 1, 1e-3); !errors.Is(err, ErrNumeric) {
		t.Fatalf("one view err = %v", err)
	}
	a := [][]float64{{1, 2}, {3, 4}}
	b := [][]float64{{1}, {2}, {3}}
	if _, err := GCCA([][][]float64{a, b}, 1, 1e-3); !errors.Is(err, ErrNumeric) {
		t.Fatalf("row mismatch err = %v", err)
	}
	if _, err := GCCA([][][]float64{a, a}, 5, 1e-3); !errors.Is(err, ErrNumeric) {
		t.Fatalf("k too big err = %v", err)
	}
}

func TestGCCARecoversSharedLatentAcrossThreeViews(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 120
	latent := make([]float64, n)
	audio := make([][]float64, n)  // 3 dims
	videoV := make([][]float64, n) // 4 dims
	text := make([][]float64, n)   // 2 dims
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		latent[i] = z
		audio[i] = []float64{z + 0.2*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		videoV[i] = []float64{rng.NormFloat64(), z + 0.2*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		text[i] = []float64{0.5*z + 0.2*rng.NormFloat64(), rng.NormFloat64()}
	}
	res, err := GCCA([][][]float64{audio, videoV, text}, 2, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shared) != n || len(res.Shared[0]) != 2 {
		t.Fatalf("shared shape %dx%d", len(res.Shared), len(res.Shared[0]))
	}
	if len(res.Projections) != 3 {
		t.Fatalf("projections = %d", len(res.Projections))
	}
	// The first shared component must strongly correlate with the planted
	// latent that all three views observe.
	corr0 := CorrelationWith(res.Shared, 0, latent)
	corr1 := CorrelationWith(res.Shared, 1, latent)
	if corr0 < 0.85 {
		t.Fatalf("shared[0] vs latent = %g", corr0)
	}
	if corr1 > corr0 {
		t.Fatalf("component order wrong: %g vs %g", corr0, corr1)
	}
}

func TestGCCAProjectionsMapViewsNearShared(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 80
	latent := make([]float64, n)
	v1 := make([][]float64, n)
	v2 := make([][]float64, n)
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		latent[i] = z
		v1[i] = []float64{z + 0.1*rng.NormFloat64(), rng.NormFloat64()}
		v2[i] = []float64{rng.NormFloat64(), z + 0.1*rng.NormFloat64()}
	}
	res, err := GCCA([][][]float64{v1, v2}, 1, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	// Project each view; the projections should correlate with the shared
	// representation (and therefore with each other).
	proj1 := make([]float64, n)
	proj2 := make([]float64, n)
	shared0 := make([]float64, n)
	for i := 0; i < n; i++ {
		proj1[i] = ProjectView(res.Projections[0], v1[i])[0]
		proj2[i] = ProjectView(res.Projections[1], v2[i])[0]
		shared0[i] = res.Shared[i][0]
	}
	c1 := corrSlices(proj1, shared0)
	c2 := corrSlices(proj2, shared0)
	if c1 < 0.8 || c2 < 0.8 {
		t.Fatalf("view projections vs shared: %g, %g", c1, c2)
	}
	if c := corrSlices(proj1, proj2); c < 0.7 {
		t.Fatalf("cross-view projected correlation = %g", c)
	}
}

func corrSlices(a, b []float64) float64 {
	n := len(a)
	var sx, sy, sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		sx += a[i]
		sy += b[i]
		sxy += a[i] * b[i]
		sxx += a[i] * a[i]
		syy += b[i] * b[i]
	}
	num := sxy - sx*sy/float64(n)
	den := (sxx - sx*sx/float64(n)) * (syy - sy*sy/float64(n))
	if den <= 0 {
		return 0
	}
	return math.Abs(num / math.Sqrt(den))
}

func TestInvertSPD(t *testing.T) {
	// a = [[2,0],[0,4]] → inverse diag(0.5, 0.25).
	inv, err := invertSPD([]float64{2, 0, 0, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inv[0]-0.5) > 1e-9 || math.Abs(inv[3]-0.25) > 1e-9 {
		t.Fatalf("inverse = %v", inv)
	}
}
