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

// fit trains net on labelled rows for epochs through TrainEpoch and returns
// its accuracy on the same rows in inference mode.
func fit(t *testing.T, net Layer, x *tensor.Tensor, labels []int, batch, epochs int, opt Optimizer, rng *rand.Rand) float64 {
	t.Helper()
	ce, err := NewSoftmaxCrossEntropy(labels, x.Dim(0))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		if _, err := TrainEpoch(net, x, batch, opt, rng, ce.Batch); err != nil {
			t.Fatal(err)
		}
	}
	logits, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	return Accuracy(logits, labels)
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
	if acc := fit(t, net, x, labels, 4, 300, NewAdam(0.05), rng); acc < 1.0 {
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
	if acc := fit(t, net, x, labels, 20, 30, NewAdam(0.01), rng); acc < 0.95 {
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
	if acc := fit(t, net, x, labels, 20, 40, NewAdam(0.02), rng); acc < 0.95 {
		t.Fatalf("direction accuracy = %g, want >= 0.95", acc)
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{0, 0, 0, 0}, 2, 2)
	loss, probs, grad, err := softmaxCrossEntropy(logits, []int{0, 1})
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
	if _, _, _, err := softmaxCrossEntropy(logits, []int{0, 5}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad label err = %v", err)
	}
}

// Batch scores the labels of the rows it is given, in their order, and
// Accuracy is the mean of the scored batches' accuracies.
func TestSoftmaxCrossEntropyBatchLabels(t *testing.T) {
	ce, err := NewSoftmaxCrossEntropy([]int{0, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Accuracy() != 0 {
		t.Fatalf("accuracy before any batch = %g", ce.Accuracy())
	}
	// Rows 2 and 0 (labels 1, 0): the logits favour class 1, then class 0.
	logits := tensor.MustFromSlice([]float64{0, 3, 3, 0}, 2, 2)
	loss, grad, err := ce.Batch([]int{2, 0})(logits)
	if err != nil {
		t.Fatal(err)
	}
	want, _, wantGrad, err := softmaxCrossEntropy(logits, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if loss != want || !tensor.AllClose(grad, wantGrad, 0) {
		t.Fatalf("loss %v grad %v, want %v %v", loss, grad.Data(), want, wantGrad.Data())
	}
	// Rows 0 and 1 (labels 0, 1) under the same logits: both wrong.
	if _, _, err := ce.Batch([]int{0, 1})(logits); err != nil {
		t.Fatal(err)
	}
	if got := ce.Accuracy(); got != 0.5 {
		t.Fatalf("accuracy = %g, want the mean of 1 and 0", got)
	}
}

// A label count that does not match the rows is refused before any
// optimizer step, so the network is left as it was.
func TestLabelCountCheckedBeforeAnyStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewSequential(NewDense(2, 4, WithRand(rng)), NewTanh(), NewDense(4, 2, WithRand(rng)))
	x := tensor.Randn(rng, 1, 5, 2)
	var before []float64
	for _, p := range net.Params() {
		before = append(before, p.Value.Data()...)
	}
	train := func(labels []int) error {
		ce, err := NewSoftmaxCrossEntropy(labels, x.Dim(0))
		if err != nil {
			return err
		}
		_, err = TrainEpoch(net, x, 2, NewSGD(0.5, 0), rng, ce.Batch)
		return err
	}
	for _, labels := range [][]int{{0, 1, 0, 1, 0, 1}, {0, 1, 0, 1}} {
		if err := train(labels); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%d labels for 5 rows: err = %v, want ErrBadInput", len(labels), err)
		}
	}
	var after []float64
	for _, p := range net.Params() {
		after = append(after, p.Value.Data()...)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("parameter element %d moved from %v to %v", i, before[i], after[i])
		}
	}
}

// oracleClassifierEpoch is the classifier epoch loop as it was before the
// models shared one: one rng.Perm, batches in that order with a short last
// batch, each gathered with its labels, stepped and optimized. It returns
// the mean batch loss and the mean batch accuracy on the probabilities.
func oracleClassifierEpoch(net Layer, x *tensor.Tensor, labels []int, batch int, opt Optimizer, rng *rand.Rand) (loss, acc float64, err error) {
	n := x.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	perm := rng.Perm(n)
	batches := 0
	for start := 0; start < n; start += batch {
		idx := perm[start:min(start+batch, n)]
		bx, err := GatherRows(x, idx)
		if err != nil {
			return 0, 0, err
		}
		bl := make([]int, len(idx))
		for i, j := range idx {
			bl[i] = labels[j]
		}
		logits, err := net.Forward(bx, true)
		if err != nil {
			return 0, 0, err
		}
		l, probs, grad, err := softmaxCrossEntropy(logits, bl)
		if err != nil {
			return 0, 0, err
		}
		if _, err := net.Backward(grad); err != nil {
			return 0, 0, err
		}
		opt.Step(net.Params())
		loss += l
		acc += Accuracy(probs, bl)
		batches++
	}
	return loss / float64(batches), acc / float64(batches), nil
}

// TrainEpoch under SoftmaxCrossEntropy trains a one-head network exactly as
// the classifier loop did: after three epochs from the same seed, the
// weights, the mean loss and the mean accuracy agree bit for bit, whether
// the batch divides the rows or leaves a short last batch.
func TestTrainEpochMatchesClassifierOracle(t *testing.T) {
	x, labels := makeMoons(rand.New(rand.NewSource(21)), 30)
	build := func() Layer {
		rng := rand.New(rand.NewSource(22))
		return NewSequential(NewDense(2, 6, WithRand(rng)), NewTanh(), NewDense(6, 2, WithRand(rng)))
	}
	for _, tc := range []struct {
		name  string
		batch int
	}{{"batch divides rows", 10}, {"short last batch", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := build(), build()
			rngGot, rngWant := rand.New(rand.NewSource(23)), rand.New(rand.NewSource(23))
			optGot, optWant := NewAdam(0.01), NewAdam(0.01)
			for e := 0; e < 3; e++ {
				ce, err := NewSoftmaxCrossEntropy(labels, x.Dim(0))
				if err != nil {
					t.Fatal(err)
				}
				gotLoss, err := TrainEpoch(got, x, tc.batch, optGot, rngGot, ce.Batch)
				if err != nil {
					t.Fatal(err)
				}
				wantLoss, wantAcc, err := oracleClassifierEpoch(want, x, labels, tc.batch, optWant, rngWant)
				if err != nil {
					t.Fatal(err)
				}
				if gotLoss != wantLoss || ce.Accuracy() != wantAcc {
					t.Fatalf("epoch %d: loss %v acc %v, oracle %v %v", e, gotLoss, ce.Accuracy(), wantLoss, wantAcc)
				}
			}
			gp, wp := got.Params(), want.Params()
			for i := range gp {
				g, w := gp[i].Value.Data(), wp[i].Value.Data()
				for j := range g {
					if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
						t.Fatalf("param %d element %d: %v vs oracle %v", i, j, g[j], w[j])
					}
				}
			}
		})
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
