package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		size  int
	}{
		{"scalar", nil, 1},
		{"vector", []int{5}, 5},
		{"matrix", []int{3, 4}, 12},
		{"image", []int{3, 8, 8}, 192},
		{"empty-dim", []int{0, 4}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if x.Size() != tt.size {
				t.Fatalf("Size() = %d, want %d", x.Size(), tt.size)
			}
			if got := x.Shape(); len(got) != len(tt.shape) {
				t.Fatalf("Shape() = %v, want %v", got, tt.shape)
			}
		})
	}
}

func TestFromSliceShapeMismatch(t *testing.T) {
	_, err := FromSlice([]float64{1, 2, 3}, 2, 2)
	if !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	if got := x.At(0, 0, 0); got != 0 {
		t.Fatalf("untouched element = %g, want 0", got)
	}
}

func TestReshape(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshape lost data: %v", y.Data())
	}
	z, err := x.Reshape(-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
	if _, err := x.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("bad reshape err = %v, want ErrShape", err)
	}
	if _, err := x.Reshape(-1, -1); !errors.Is(err, ErrShape) {
		t.Fatalf("double -1 err = %v, want ErrShape", err)
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(4)
	y := x.MustReshape(2, 2)
	y.Set(9, 1, 1)
	if x.At(3) != 9 {
		t.Fatal("reshape should share backing data")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := MustFromSlice([]float64{3, 4}, 2)
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.At(1) != 6 {
		t.Fatalf("AddInPlace = %v", a.Data())
	}
	if err := a.AxpyInPlace(0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0) != 5.5 {
		t.Fatalf("AxpyInPlace = %v", a.Data())
	}
	a.Scale(2)
	if a.At(0) != 11 {
		t.Fatalf("Scale = %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float64{-1, 5, 2, 0}, 4)
	if x.Sum() != 6 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if x.Mean() != 1.5 {
		t.Fatalf("Mean = %g", x.Mean())
	}
	if got := MustFromSlice([]float64{3, 4}, 2).L2Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2Norm = %g, want 5", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := MatMul(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if _, err := MatMul(New(2), b); !errors.Is(err, ErrShape) {
		t.Fatalf("rank-1 err = %v, want ErrShape", err)
	}
}

// Transpose2D returns the transpose of a rank-2 tensor, materialised: the
// reference the MatMulTransA and MatMulTransB tests compare against.
func Transpose2D(a *Tensor) (*Tensor, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: Transpose2D needs rank-2, got %v", ErrShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 5)
	b := Randn(rng, 1, 5, 3)

	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}

	bT, err := Transpose2D(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMulTransB(a, bT)
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(want, got, 1e-12) {
		t.Fatal("MatMulTransB disagrees with MatMul")
	}

	aT, err := Transpose2D(a)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := MatMulTransA(aT, b)
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(want, got2, 1e-12) {
		t.Fatal("MatMulTransA disagrees with MatMul")
	}
}

func TestTranspose2D(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at, err := Transpose2D(a)
	if err != nil {
		t.Fatal(err)
	}
	if at.Dim(0) != 3 || at.Dim(1) != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose2D = %v", at.Data())
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := MustFromSlice([]float64{1, 1, 1, 1000, 0, -1000}, 2, 3)
	p, err := SoftmaxRows(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			s += p.At(i, j)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
	if math.Abs(p.At(0, 0)-1.0/3) > 1e-9 {
		t.Fatalf("uniform row = %v", p.Data()[:3])
	}
	if p.At(1, 0) < 0.999 {
		t.Fatalf("saturated row = %v", p.Data()[3:])
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Fatalf("deterministic entropy = %g", h)
	}
	h := Entropy([]float64{0.5, 0.5})
	if math.Abs(h-math.Ln2) > 1e-12 {
		t.Fatalf("fair-coin entropy = %g, want ln 2", h)
	}
}

func TestCloneIsolation(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone should not alias")
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(42)), 1, 10)
	b := Randn(rand.New(rand.NewSource(42)), 1, 10)
	if !AllClose(a, b, 0) {
		t.Fatal("same seed should give same tensor")
	}
}

// Property: softmax output rows always form a probability distribution.
func TestSoftmaxRowsProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
			// Keep magnitudes sane; softmax is shift-invariant anyway.
			vals[i] = math.Mod(vals[i], 50)
		}
		x := MustFromSlice(vals[:], 2, 3)
		p, err := SoftmaxRows(x)
		if err != nil {
			return false
		}
		for i := 0; i < 2; i++ {
			s := 0.0
			for j := 0; j < 3; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		ab, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		abT, err := Transpose2D(ab)
		if err != nil {
			t.Fatal(err)
		}
		bT, _ := Transpose2D(b)
		aT, _ := Transpose2D(a)
		bTaT, err := MatMul(bT, aT)
		if err != nil {
			t.Fatal(err)
		}
		if !AllClose(abT, bTaT, 1e-10) {
			t.Fatalf("trial %d: (AB)^T != B^T A^T", trial)
		}
	}
}
