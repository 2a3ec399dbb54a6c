package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// buildToyBranch returns a BranchNet over 2-feature inputs: a dense stem, a
// weak one-layer exit head, and a deeper tail.
func buildToyBranch(rng *rand.Rand) *BranchNet {
	stem := NewSequential(NewDense(2, 8, WithRand(rng)), NewTanh())
	exit1 := NewSequential(NewDense(8, 2, WithRand(rng)))
	tail := NewSequential(
		NewDense(8, 16, WithRand(rng)),
		NewTanh(),
		NewDense(16, 2, WithRand(rng)),
	)
	return NewBranchNet(stem, exit1, tail)
}

// everyRow returns the row indices 0..n-1 in order.
func everyRow(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func makeMoons(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		r := 1 + 0.15*rng.NormFloat64()
		theta := rng.Float64() * math.Pi
		if cls == 0 {
			x.Set(r*math.Cos(theta), i, 0)
			x.Set(r*math.Sin(theta), i, 1)
		} else {
			x.Set(1-r*math.Cos(theta), i, 0)
			x.Set(0.3-r*math.Sin(theta), i, 1)
		}
	}
	return x, labels
}

func TestBranchNetTrainsBothHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := buildToyBranch(rng)
	x, labels := makeMoons(rng, 200)
	ce, err := NewSoftmaxCrossEntropy(labels, len(labels))
	if err != nil {
		t.Fatal(err)
	}
	loss := ce.Batch(everyRow(len(labels)))
	opt := NewAdam(0.01)
	var first1, first2, last1, last2 float64
	for epoch := 0; epoch < 120; epoch++ {
		l1, l2, err := b.TrainStep(x, loss)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(b.Params())
		if epoch == 0 {
			first1, first2 = l1, l2
		}
		last1, last2 = l1, l2
	}
	if last1 >= first1 || last2 >= first2 {
		t.Fatalf("losses did not decrease: exit1 %g→%g tail %g→%g", first1, last1, first2, last2)
	}

	// Full-server inference (threshold impossible to clear: a negated
	// entropy is never positive) must be at least as accurate as full-local
	// (threshold always cleared) on this task, because the tail is strictly
	// deeper.
	localRes, err := b.Infer(x, ExitPolicy{Threshold: math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	serverRes, err := b.Infer(x, ExitPolicy{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(rs []InferResult) float64 {
		c := 0
		for i, r := range rs {
			if r.Class == labels[i] {
				c++
			}
		}
		return float64(c) / float64(len(rs))
	}
	la, sa := accOf(localRes), accOf(serverRes)
	if la < 0.6 || sa < 0.7 {
		t.Fatalf("accuracies too low: local %g server %g", la, sa)
	}
	for _, r := range localRes {
		if !r.ExitedLocal {
			t.Fatal("threshold -Inf must always exit locally")
		}
		if r.FeatureBytes != 0 {
			t.Fatal("local exits ship no feature bytes")
		}
	}
	for _, r := range serverRes {
		if r.ExitedLocal {
			t.Fatal("threshold 1 must never exit locally")
		}
		if r.FeatureBytes == 0 {
			t.Fatal("server path must account feature bytes")
		}
	}
	if res, err := b.Infer(tensor.New(0, 2), ExitPolicy{Threshold: 1}); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %d results, err = %v", len(res), err)
	}
}

func TestExitRateMonotoneInThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	b := buildToyBranch(rng)
	x, labels := makeMoons(rng, 150)
	ce, err := NewSoftmaxCrossEntropy(labels, len(labels))
	if err != nil {
		t.Fatal(err)
	}
	loss := ce.Batch(everyRow(len(labels)))
	opt := NewAdam(0.01)
	for epoch := 0; epoch < 60; epoch++ {
		if _, _, err := b.TrainStep(x, loss); err != nil {
			t.Fatal(err)
		}
		opt.Step(b.Params())
	}
	// Each swept threshold is some row's score, the negated entropy of its
	// exit-1 output, so every step has a row on the boundary; it exits.
	_, logits, err := b.LocalForward(x)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := tensor.SoftmaxRows(logits)
	if err != nil {
		t.Fatal(err)
	}
	n, k := probs.Dim(0), probs.Dim(1)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = -tensor.Entropy(probs.Data()[i*k : (i+1)*k])
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	prev := 2.0
	for _, th := range []float64{sorted[0], sorted[n/4], sorted[n/2], sorted[3*n/4], sorted[n-1]} {
		res, err := b.Infer(x, ExitPolicy{Threshold: th})
		if err != nil {
			t.Fatal(err)
		}
		exits, below := 0, 0
		for i, r := range res {
			if r.ExitedLocal {
				exits++
			}
			if scores[i] < th {
				below++
			}
		}
		if exits != n-below {
			t.Fatalf("threshold %g: %d rows exit, want the %d scoring at least it", th, exits, n-below)
		}
		rate := float64(exits) / float64(len(res))
		if rate > prev {
			t.Fatalf("exit rate increased from %g to %g as threshold rose to %g", prev, rate, th)
		}
		prev = rate
	}
}

// oracleBranchTrainStep is BranchNet.TrainStep as it was when the loss was a
// fixed softmax cross-entropy field: both heads against the same labels.
func oracleBranchTrainStep(b *BranchNet, x *tensor.Tensor, labels []int) (exit1Loss, tailLoss float64, err error) {
	feature, err := b.Stem.Forward(x, true)
	if err != nil {
		return 0, 0, err
	}
	logits1, err := b.Exit1.Forward(feature, true)
	if err != nil {
		return 0, 0, err
	}
	logits2, err := b.Tail.Forward(feature, true)
	if err != nil {
		return 0, 0, err
	}
	l1, _, g1, err := softmaxCrossEntropy(logits1, labels)
	if err != nil {
		return 0, 0, err
	}
	l2, _, g2, err := softmaxCrossEntropy(logits2, labels)
	if err != nil {
		return 0, 0, err
	}
	g1.Scale(b.Exit1Weight)
	gf1, err := b.Exit1.Backward(g1)
	if err != nil {
		return 0, 0, err
	}
	gf2, err := b.Tail.Backward(g2)
	if err != nil {
		return 0, 0, err
	}
	if err := gf1.AddInPlace(gf2); err != nil {
		return 0, 0, err
	}
	if _, err := b.Stem.Backward(gf1); err != nil {
		return 0, 0, err
	}
	return l1, l2, nil
}

// TestTrainStepMatchesFixedLossOracle trains two toy networks from one seed,
// one through TrainStep with a cross-entropy HeadLoss and one through the
// fixed-loss oracle, and requires the same losses and parameters bit for bit.
func TestTrainStepMatchesFixedLossOracle(t *testing.T) {
	x, labels := makeMoons(rand.New(rand.NewSource(31)), 40)
	got, want := buildToyBranch(rand.New(rand.NewSource(30))), buildToyBranch(rand.New(rand.NewSource(30)))
	ce, err := NewSoftmaxCrossEntropy(labels, len(labels))
	if err != nil {
		t.Fatal(err)
	}
	loss := ce.Batch(everyRow(len(labels)))
	optGot, optWant := NewAdam(0.01), NewAdam(0.01)
	for step := 0; step < 5; step++ {
		g1, g2, err := got.TrainStep(x, loss)
		if err != nil {
			t.Fatal(err)
		}
		optGot.Step(got.Params())
		w1, w2, err := oracleBranchTrainStep(want, x, labels)
		if err != nil {
			t.Fatal(err)
		}
		optWant.Step(want.Params())
		if g1 != w1 || g2 != w2 {
			t.Fatalf("step %d: losses (%v, %v), oracle (%v, %v)", step, g1, g2, w1, w2)
		}
	}
	gp, wp := got.Params(), want.Params()
	for i := range gp {
		gd, wd := gp[i].Value.Data(), wp[i].Value.Data()
		for j := range gd {
			if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
				t.Fatalf("param %d element %d: %v, oracle %v", i, j, gd[j], wd[j])
			}
		}
	}
}

// countingOpt counts optimizer steps and clears gradients without moving
// any weight.
type countingOpt struct{ steps int }

func (o *countingOpt) Step(params []*Param) {
	o.steps++
	ZeroGrads(params)
}

// TestEpochKeepsShortLastBatch runs one epoch over 10 rows in batches of 4,
// through the one-head loop and through BranchNet's, and requires batches
// of 4, 4 and 2 rows, one optimizer step each, with every row visited once.
// An empty set takes no step.
func TestEpochKeepsShortLastBatch(t *testing.T) {
	x, labels := makeMoons(rand.New(rand.NewSource(5)), 10)
	ce, err := NewSoftmaxCrossEntropy(labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	trainers := map[string]func(x *tensor.Tensor, opt Optimizer, lossFor func(idx []int) HeadLoss) error{
		"one head": func(x *tensor.Tensor, opt Optimizer, lossFor func(idx []int) HeadLoss) error {
			_, err := TrainEpoch(NewDense(2, 2), x, 4, opt, rand.New(rand.NewSource(6)), lossFor)
			return err
		},
		"branch": func(x *tensor.Tensor, opt Optimizer, lossFor func(idx []int) HeadLoss) error {
			_, _, err := buildToyBranch(rand.New(rand.NewSource(7))).TrainEpoch(x, 4, opt, rand.New(rand.NewSource(6)), lossFor)
			return err
		},
	}
	for name, train := range trainers {
		t.Run(name, func(t *testing.T) {
			opt := &countingOpt{}
			visits := make([]int, x.Dim(0))
			var sizes []int
			err := train(x, opt, func(idx []int) HeadLoss {
				sizes = append(sizes, len(idx))
				for _, i := range idx {
					visits[i]++
				}
				return ce.Batch(idx)
			})
			if err != nil {
				t.Fatal(err)
			}
			if opt.steps != 3 || !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
				t.Fatalf("%d optimizer steps over batches %v, want 3 over [4 4 2]", opt.steps, sizes)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("row %d visited %d times", i, v)
				}
			}
			empty := &countingOpt{}
			if err := train(tensor.New(0, 2), empty, ce.Batch); err != nil || empty.steps != 0 {
				t.Fatalf("empty set: %d steps, err = %v", empty.steps, err)
			}
		})
	}
}

func TestExitPolicyMetrics(t *testing.T) {
	certain := []float64{0.99, 0.005, 0.005}
	uncertain := []float64{0.34, 0.33, 0.33}

	sc, su := -tensor.Entropy(certain), -tensor.Entropy(uncertain)
	if sc <= su {
		t.Fatal("certain distribution must have the higher negated entropy")
	}
	p := ExitPolicy{Threshold: -0.5}
	if !p.Exits(sc) || p.Exits(su) {
		t.Fatal("entropy gate misclassified confidence")
	}
}

// TestParallelTrainerMatchesSerialGradients runs one data-parallel step on 4
// workers and one serial step on the whole batch: the parameters after the
// step, and the loss, must agree. 8 rows shard evenly (2, 2, 2, 2); 10 rows
// do not (3, 3, 3, 1), so each shard must weigh by its rows.
func TestParallelTrainerMatchesSerialGradients(t *testing.T) {
	factory := func() Layer {
		r := rand.New(rand.NewSource(100))
		return NewSequential(NewDense(3, 5, WithRand(r)), NewTanh(), NewDense(5, 2, WithRand(r)))
	}
	for _, rows := range []int{8, 10} {
		t.Run(fmt.Sprintf("%d rows", rows), func(t *testing.T) {
			master := factory()
			trainer, err := NewParallelTrainer(master, 4, factory)
			if err != nil {
				t.Fatal(err)
			}
			serial := factory()
			x := tensor.Randn(rand.New(rand.NewSource(23)), 1, rows, 3)
			labels := make([]int, rows)
			for i := range labels {
				labels[i] = i % 2
			}
			ce, err := NewSoftmaxCrossEntropy(labels, rows)
			if err != nil {
				t.Fatal(err)
			}
			// A step at LR 0 would leave both nets unchanged, so compare the
			// weights after one real step.
			parallelLoss, err := trainer.Step(x, NewSGD(0.1, 0), ce.Batch)
			if err != nil {
				t.Fatal(err)
			}
			serialLoss, err := trainStep(serial, x, ce.Batch(everyRow(rows)))
			if err != nil {
				t.Fatal(err)
			}
			NewSGD(0.1, 0).Step(serial.Params())

			mp, sp := master.Params(), serial.Params()
			for i := range mp {
				if !tensor.AllClose(mp[i].Value, sp[i].Value, 1e-9) {
					t.Fatalf("param %d diverged between parallel and serial", i)
				}
			}
			if math.Abs(parallelLoss-serialLoss) > 1e-12 {
				t.Fatalf("parallel loss %.15g, serial %.15g", parallelLoss, serialLoss)
			}
		})
	}
}

func TestParallelTrainerRejectsZeroWorkers(t *testing.T) {
	if _, err := NewParallelTrainer(NewDense(2, 2), 0, func() Layer { return NewDense(2, 2) }); err == nil {
		t.Fatal("want error for zero workers")
	}
}
