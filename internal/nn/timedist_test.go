package nn

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestTimeDistributedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	layer := NewTimeDistributed(NewDense(4, 3, WithRand(rng)))
	x := tensor.Randn(rng, 1, 2, 5, 4) // [N=2, T=5, D=4]
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestTimeDistributedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	inner := NewSequential(
		NewConv2D(ConvConfig{InC: 1, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}, WithRand(rng)),
		NewGlobalAvgPool(),
	)
	td := NewTimeDistributed(inner)
	x := tensor.Randn(rng, 1, 3, 4, 1, 6, 6) // [N=3, T=4, C=1, 6, 6]
	y, err := td.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dims() != 3 || y.Dim(0) != 3 || y.Dim(1) != 4 || y.Dim(2) != 2 {
		t.Fatalf("out shape %v", y.Shape())
	}
	if _, err := td.Forward(tensor.New(3, 4), false); !errors.Is(err, ErrBadInput) {
		t.Fatalf("rank-2 err = %v", err)
	}
}

func TestTimeDistributedLSTMStack(t *testing.T) {
	// End-to-end Fig. 7 shape: frames → per-frame CNN → LSTM → classifier.
	rng := rand.New(rand.NewSource(33))
	net := NewSequential(
		NewTimeDistributed(NewSequential(
			NewConv2D(ConvConfig{InC: 1, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}, WithRand(rng)),
			NewReLU(),
			NewGlobalAvgPool(),
		)),
		NewLSTM(2, 6, WithRand(rng)),
		NewLastStep(),
		NewDense(6, 3, WithRand(rng)),
	)
	x := tensor.Randn(rng, 1, 2, 5, 1, 6, 6)
	y, err := net.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 3 {
		t.Fatalf("logits shape %v", y.Shape())
	}
	_, _, grad, err := softmaxCrossEntropy(y, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
}

func TestReshapeGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	layer := NewReshape(2, 3, 2)
	x := tensor.Randn(rng, 1, 4, 12)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestReshapeShapes(t *testing.T) {
	r := NewReshape(2, 2)
	y, err := r.Forward(tensor.New(3, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dims() != 3 || y.Dim(1) != 2 || y.Dim(2) != 2 {
		t.Fatalf("shape %v", y.Shape())
	}
	if _, err := r.Forward(tensor.New(3, 5), false); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad reshape err = %v", err)
	}
	fresh := NewReshape(2, 2)
	if _, err := fresh.Backward(tensor.New(3, 2, 2)); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("backward-first err = %v", err)
	}
}
