package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestDenseShapeErrors(t *testing.T) {
	d := NewDense(4, 2)
	if _, err := d.Forward(tensor.New(3, 5), false); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	if _, err := d.Backward(tensor.New(3, 2)); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("backward-before-forward err = %v, want ErrNotBuilt", err)
	}
}

func TestDenseFlattensHighRankInput(t *testing.T) {
	d := NewDense(12, 2)
	out, err := d.Forward(tensor.New(3, 3, 2, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 3 || out.Dim(1) != 2 {
		t.Fatalf("out shape %v", out.Shape())
	}
}

// A dense network must learn XOR, the canonical nonlinear task.
func TestLearnXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(
		NewDense(2, 8, WithRand(rng)),
		NewTanh(),
		NewDense(8, 2, WithRand(rng)),
	)
	x := tensor.MustFromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	clf := NewClassifier(net)
	opt := NewAdam(0.05)
	for epoch := 0; epoch < 300; epoch++ {
		if _, _, err := clf.TrainEpoch(x, labels, 4, opt, rng); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := clf.Evaluate(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 1.0 {
		t.Fatalf("XOR accuracy = %g, want 1.0", acc)
	}
}

// A small CNN must learn to separate horizontal from vertical bars.
func TestConvLearnsBars(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, size = 60, 8
	x := tensor.New(n, 1, size, size)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		pos := rng.Intn(size)
		if i%2 == 0 {
			labels[i] = 0 // horizontal
			for c := 0; c < size; c++ {
				x.Set(1+0.1*rng.Float64(), i, 0, pos, c)
			}
		} else {
			labels[i] = 1 // vertical
			for r := 0; r < size; r++ {
				x.Set(1+0.1*rng.Float64(), i, 0, r, pos)
			}
		}
	}
	net := NewSequential(
		NewConv2D(ConvConfig{InC: 1, OutC: 4, Kernel: 3, Stride: 1, Pad: 1}, WithRand(rng)),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(4*4*4, 2, WithRand(rng)),
	)
	clf := NewClassifier(net)
	opt := NewAdam(0.01)
	for epoch := 0; epoch < 30; epoch++ {
		if _, _, err := clf.TrainEpoch(x, labels, 20, opt, rng); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := clf.Evaluate(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("bars accuracy = %g, want >= 0.95", acc)
	}
}

// An LSTM must solve a task a frame-only model cannot: classify whether the
// active position moved left-to-right or right-to-left over time.
func TestLSTMLearnsDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, steps, dim = 80, 6, 6
	x := tensor.New(n, steps, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		dir := i % 2
		labels[i] = dir
		for s := 0; s < steps; s++ {
			pos := s
			if dir == 1 {
				pos = steps - 1 - s
			}
			x.Set(1, i, s, pos)
		}
	}
	net := NewSequential(
		NewLSTM(dim, 12, WithRand(rng)),
		NewLastStep(),
		NewDense(12, 2, WithRand(rng)),
	)
	clf := NewClassifier(net)
	opt := NewAdam(0.02)
	for epoch := 0; epoch < 40; epoch++ {
		if _, _, err := clf.TrainEpoch(x, labels, 20, opt, rng); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := clf.Evaluate(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("direction accuracy = %g, want >= 0.95", acc)
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	var l SoftmaxCrossEntropy
	logits := tensor.MustFromSlice([]float64{0, 0, 0, 0}, 2, 2)
	loss, probs, grad, err := l.Loss(logits, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Ln2) > 1e-9 {
		t.Fatalf("uniform loss = %g, want ln 2", loss)
	}
	if math.Abs(probs.At(0, 0)-0.5) > 1e-9 {
		t.Fatalf("probs = %v", probs.Data())
	}
	// grad = (p - onehot)/N
	if math.Abs(grad.At(0, 0)-(-0.25)) > 1e-9 || math.Abs(grad.At(0, 1)-0.25) > 1e-9 {
		t.Fatalf("grad = %v", grad.Data())
	}
	if _, _, _, err := l.Loss(logits, []int{0, 5}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad label err = %v", err)
	}
}

func TestMSELoss(t *testing.T) {
	var l MSE
	pred := tensor.MustFromSlice([]float64{1, 2}, 2)
	target := tensor.MustFromSlice([]float64{0, 0}, 2)
	loss, grad, err := l.Loss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	// ½(1+4)/2 = 1.25
	if math.Abs(loss-1.25) > 1e-9 {
		t.Fatalf("loss = %g", loss)
	}
	if math.Abs(grad.At(0)-0.5) > 1e-9 || math.Abs(grad.At(1)-1.0) > 1e-9 {
		t.Fatalf("grad = %v", grad.Data())
	}
}

func TestAccuracy(t *testing.T) {
	scores := tensor.MustFromSlice([]float64{0.9, 0.1, 0.2, 0.8}, 2, 2)
	if got := Accuracy(scores, []int{0, 1}); got != 1.0 {
		t.Fatalf("acc = %g", got)
	}
	if got := Accuracy(scores, []int{1, 0}); got != 0.0 {
		t.Fatalf("acc = %g", got)
	}
}

func TestBatchNormNormalizesAndTracksRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm(3)
	x := tensor.Randn(rng, 5, 64, 3)
	x.ApplyInPlace(func(v float64) float64 { return v + 10 })
	y, err := bn.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	// Per-feature mean of the normalized output should be ~0 and var ~1.
	for f := 0; f < 3; f++ {
		mean, varSum := 0.0, 0.0
		for i := 0; i < 64; i++ {
			mean += y.At(i, f)
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := y.At(i, f) - mean
			varSum += d * d
		}
		varSum /= 64
		if math.Abs(mean) > 1e-6 || math.Abs(varSum-1) > 1e-3 {
			t.Fatalf("feature %d: mean=%g var=%g", f, mean, varSum)
		}
	}
	// After several training passes, inference should use running stats and
	// approximately normalize similar data.
	for i := 0; i < 50; i++ {
		if _, err := bn.Forward(x, true); err != nil {
			t.Fatal(err)
		}
	}
	yInfer, err := bn.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(yInfer.Mean()) > 0.2 {
		t.Fatalf("inference mean = %g, want ≈ 0", yInfer.Mean())
	}
}

func TestOptimizersReduceQuadratic(t *testing.T) {
	// Minimize f(w) = ½‖w‖² with gradient w.
	for name, mk := range map[string]func() Optimizer{
		"sgd":          func() Optimizer { return NewSGD(0.1, 0) },
		"sgd-momentum": func() Optimizer { return NewSGD(0.05, 0.9) },
		"adam":         func() Optimizer { return NewAdam(0.1) },
	} {
		t.Run(name, func(t *testing.T) {
			p := newParam("w", tensor.Full(5, 4))
			opt := mk()
			for i := 0; i < 200; i++ {
				_ = p.Grad.CopyFrom(p.Value)
				opt.Step([]*Param{p})
			}
			if n := p.Value.L2Norm(); n > 0.1 {
				t.Fatalf("‖w‖ = %g after 200 steps", n)
			}
		})
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", tensor.New(2))
	p.Grad.Set(3, 0)
	p.Grad.Set(4, 1)
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-9 {
		t.Fatalf("pre-norm = %g", pre)
	}
	if post := p.Grad.L2Norm(); math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-norm = %g", post)
	}
	// No-op when under the bound.
	pre2 := ClipGradNorm([]*Param{p}, 10)
	if math.Abs(pre2-1) > 1e-9 {
		t.Fatalf("second pre-norm = %g", pre2)
	}
}

func TestGatherRows(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	g, err := GatherRows(x, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 0) != 5 || g.At(1, 1) != 2 {
		t.Fatalf("gathered = %v", g.Data())
	}
	if _, err := GatherRows(x, []int{3}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("oob err = %v", err)
	}
}

func TestCopyParamsMismatch(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 3)
	if err := CopyParams(a.Params(), b.Params()[:1]); !errors.Is(err, ErrBadInput) {
		t.Fatalf("count mismatch err = %v", err)
	}
	if err := CopyParams(a.Params(), b.Params()); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestNumParams(t *testing.T) {
	d := NewDense(3, 4)
	if got := NumParams(d.Params()); got != 3*4+4 {
		t.Fatalf("NumParams = %d, want 16", got)
	}
}
