package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates d(loss)/d(theta) by central differences, where
// loss is computed by f after perturbing theta's k-th element.
func numericalGrad(theta *tensor.Tensor, k int, f func() float64) float64 {
	const eps = 1e-5
	orig := theta.Data()[k]
	theta.Data()[k] = orig + eps
	lp := f()
	theta.Data()[k] = orig - eps
	lm := f()
	theta.Data()[k] = orig
	return (lp - lm) / (2 * eps)
}

// checkLayerGradients validates both parameter gradients and input gradients
// of a layer against numerical differentiation, using a quadratic loss
// L = ½ Σ (y·c)² with fixed random coefficients c so the loss gradient is
// y*c² ... actually we use L = Σ c_i * y_i so dL/dy = c (linear, exact).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	out, err := layer.Forward(x, true)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	coef := tensor.Randn(rng, 1, out.Shape()...)

	lossFn := func() float64 {
		y, err := layer.Forward(x, true)
		if err != nil {
			t.Fatalf("forward in lossFn: %v", err)
		}
		s := 0.0
		for i, v := range y.Data() {
			s += coef.Data()[i] * v
		}
		return s
	}

	// Analytic pass: dL/dy = coef.
	ZeroGrads(layer.Params())
	if _, err := layer.Forward(x, true); err != nil {
		t.Fatalf("forward: %v", err)
	}
	dx, err := layer.Backward(coef.Clone())
	if err != nil {
		t.Fatalf("backward: %v", err)
	}

	// Parameter gradients.
	for _, p := range layer.Params() {
		n := p.Value.Size()
		stride := 1
		if n > 12 {
			stride = n / 12
		}
		for k := 0; k < n; k += stride {
			want := numericalGrad(p.Value, k, lossFn)
			got := p.Grad.Data()[k]
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Errorf("param %s[%d]: analytic %g vs numeric %g", p.Name, k, got, want)
			}
		}
	}

	// Input gradients.
	n := x.Size()
	stride := 1
	if n > 12 {
		stride = n / 12
	}
	for k := 0; k < n; k += stride {
		want := numericalGrad(x, k, lossFn)
		got := dx.Data()[k]
		if math.Abs(want-got) > tol*(1+math.Abs(want)) {
			t.Errorf("input[%d]: analytic %g vs numeric %g", k, got, want)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(5, 3, WithRand(rng))
	x := tensor.Randn(rng, 1, 4, 5)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2D(ConvConfig{InC: 2, OutC: 3, Kernel: 3, Stride: 1, Pad: 1}, WithRand(rng))
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConv2D(ConvConfig{InC: 1, OutC: 2, Kernel: 3, Stride: 2, Pad: 1}, WithRand(rng))
	x := tensor.Randn(rng, 1, 2, 1, 7, 7)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewMaxPool2D(2, 2)
	// Use well-separated values so the argmax does not flip under the
	// finite-difference perturbation.
	x := tensor.Randn(rng, 10, 2, 2, 4, 4)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewGlobalAvgPool()
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestBatchNormGradients2D(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layer := NewBatchNorm(4)
	x := tensor.Randn(rng, 1, 6, 4)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestBatchNormGradients4D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewBatchNorm(3)
	x := tensor.Randn(rng, 1, 2, 3, 3, 3)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layers := map[string]Layer{
		"leakyrelu": NewLeakyReLU(0.1),
		"tanh":      NewTanh(),
	}
	for name, layer := range layers {
		t.Run(name, func(t *testing.T) {
			x := tensor.Randn(rng, 1, 3, 4)
			// Shift away from zero so kinked activations stay differentiable
			// at every probe point.
			x.ApplyInPlace(func(v float64) float64 {
				if math.Abs(v) < 0.05 {
					return v + 0.1
				}
				return v
			})
			checkLayerGradients(t, layer, x, 1e-5)
		})
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layer := NewLSTM(3, 4, WithRand(rng))
	x := tensor.Randn(rng, 1, 2, 5, 3) // [N=2, T=5, D=3]
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestLastStepGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewLastStep()
	x := tensor.Randn(rng, 1, 2, 3, 4)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestResidualBlockGradients(t *testing.T) {
	for _, kind := range []ShortcutKind{ShortcutConv, ShortcutIdentity, ShortcutPool} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			block, err := NewResidualBlock(ResidualConfig{InC: 2, OutC: 2, Stride: 1, Shortcut: kind}, WithRand(rng))
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Randn(rng, 1, 2, 2, 4, 4)
			checkLayerGradients(t, block, x, 5e-4)
		})
	}
}

func TestResidualBlockDownsampleGradients(t *testing.T) {
	for _, kind := range []ShortcutKind{ShortcutConv, ShortcutPool} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			block, err := NewResidualBlock(ResidualConfig{InC: 2, OutC: 4, Stride: 2, Shortcut: kind}, WithRand(rng))
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Randn(rng, 1, 2, 2, 6, 6)
			checkLayerGradients(t, block, x, 5e-4)
		})
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewSequential(
		NewDense(4, 8, WithRand(rng)),
		NewTanh(),
		NewDense(8, 3, WithRand(rng)),
	)
	x := tensor.Randn(rng, 1, 3, 4)
	checkLayerGradients(t, net, x, 1e-5)
}
