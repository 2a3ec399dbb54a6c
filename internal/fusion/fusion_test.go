package fusion

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestSymEigRecoversKnownSpectrum(t *testing.T) {
	// Diagonalizable 2×2 with eigenvalues 3 and 1: [[2,1],[1,2]].
	w, v, err := symEig([]float64{2, 1, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{w[0], w[1]}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Fatalf("eigenvalues = %v", w)
	}
	// Eigenvectors orthonormal.
	dot := v[0]*v[1] + v[2]*v[3]
	if math.Abs(dot) > 1e-9 {
		t.Fatalf("eigenvectors not orthogonal: %g", dot)
	}
}

func TestSymEigReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a[i*n+j] = v
				a[j*n+i] = v
			}
		}
		w, v, err := symEig(a, n)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct V·diag(w)·Vᵀ and compare.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += v[i*n+k] * w[k] * v[j*n+k]
				}
				if math.Abs(s-a[i*n+j]) > 1e-7 {
					t.Fatalf("trial %d: reconstruction error at (%d,%d): %g vs %g", trial, i, j, s, a[i*n+j])
				}
			}
		}
	}
}

func TestInvSqrtSym(t *testing.T) {
	// For a = diag(4, 9): a^{-1/2} = diag(1/2, 1/3).
	inv, err := invSqrtSym([]float64{4, 0, 0, 9}, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inv[0]-0.5) > 1e-9 || math.Abs(inv[3]-1.0/3) > 1e-9 {
		t.Fatalf("invsqrt = %v", inv)
	}
}

func TestCCARecoversSharedSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 500
	x := make([][]float64, n)
	y := make([][]float64, n)
	for i := 0; i < n; i++ {
		shared := rng.NormFloat64()
		x[i] = []float64{shared + 0.1*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = []float64{rng.NormFloat64(), shared + 0.1*rng.NormFloat64()}
	}
	res, err := CCA(x, y, 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// First canonical correlation should be near 1/(1+0.01) ≈ 0.99; second
	// near 0.
	if res.Correlations[0] < 0.9 {
		t.Fatalf("first correlation = %g", res.Correlations[0])
	}
	if res.Correlations[1] > 0.3 {
		t.Fatalf("second correlation = %g", res.Correlations[1])
	}
	// Projected values must actually correlate.
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		px := Project(res.WX[0], x[i])
		py := Project(res.WY[0], y[i])
		sxy += px * py
		sxx += px * px
		syy += py * py
	}
	corr := math.Abs(sxy / math.Sqrt(sxx*syy))
	if corr < 0.9 {
		t.Fatalf("empirical projected correlation = %g", corr)
	}
}

func TestCCAInputValidation(t *testing.T) {
	if _, err := CCA(nil, nil, 1, 0); !errors.Is(err, ErrNumeric) {
		t.Fatalf("err = %v", err)
	}
	x := [][]float64{{1, 2}, {3, 4}}
	y := [][]float64{{1}, {2}}
	if _, err := CCA(x, y, 2, 0); !errors.Is(err, ErrNumeric) {
		t.Fatalf("k>q err = %v", err)
	}
}

// makeGunshotData builds a two-modality dataset: class 1 ("gunshot") has a
// spike in audio band 0 AND a flash in video pixel 0; each single modality
// also has distractor noise that makes it unreliable alone.
func makeGunshotData(rng *rand.Rand, n int) (xa, xb *tensor.Tensor, labels []int) {
	const da, db = 6, 8
	xa = tensor.New(n, da)
	xb = tensor.New(n, db)
	labels = make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < da; j++ {
			xa.Set(0.3*rng.NormFloat64(), i, j)
		}
		for j := 0; j < db; j++ {
			xb.Set(0.3*rng.NormFloat64(), i, j)
		}
		if cls == 1 {
			// True event: both modalities fire (with occasional dropout).
			if rng.Float64() > 0.2 {
				xa.Set(1+0.2*rng.NormFloat64(), i, 0)
			}
			if rng.Float64() > 0.2 {
				xb.Set(1+0.2*rng.NormFloat64(), i, 0)
			}
		} else {
			// Distractors: single-modality false alarms (car backfire on
			// audio only, camera glint on video only).
			if rng.Float64() < 0.4 {
				xa.Set(1+0.2*rng.NormFloat64(), i, 0)
			} else if rng.Float64() < 0.4 {
				xb.Set(1+0.2*rng.NormFloat64(), i, 0)
			}
		}
	}
	return xa, xb, labels
}

func TestAutoencoderTrainsAndReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ae, err := NewAutoencoder(AutoencoderConfig{DimA: 6, DimB: 8, Hidden: 12, Bottleneck: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xa, xb, _ := makeGunshotData(rng, 200)
	opt := nn.NewAdam(0.01)
	var first, last float64
	for e := 0; e < 150; e++ {
		la, lb, err := ae.TrainStep(xa, xb)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(ae.Params())
		if e == 0 {
			first = la + lb
		}
		last = la + lb
	}
	if last >= first {
		t.Fatalf("reconstruction loss did not decrease: %g → %g", first, last)
	}
	ra, rb, err := ae.Reconstruct(xa, xb)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Dim(1) != 6 || rb.Dim(1) != 8 {
		t.Fatalf("reconstruction shapes %v %v", ra.Shape(), rb.Shape())
	}
}

func TestAutoencoderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewAutoencoder(AutoencoderConfig{}, rng); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v", err)
	}
	ae, err := NewAutoencoder(AutoencoderConfig{DimA: 3, DimB: 3, Hidden: 4, Bottleneck: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.Encode(tensor.New(2, 5), tensor.New(2, 3)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("shape err = %v", err)
	}
	if _, _, err := ae.TrainStep(tensor.New(2, 3), tensor.New(3, 3)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("batch err = %v", err)
	}
}
