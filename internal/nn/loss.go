package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy combines a row softmax with the negative log-likelihood
// loss against integer class labels. Combining the two keeps the backward
// pass numerically trivial: grad = (p - onehot)/N.
type SoftmaxCrossEntropy struct{}

// Loss computes mean cross-entropy for logits [N,K] and labels of length N,
// returning the loss value, the softmax probabilities, and the gradient with
// respect to the logits.
func (SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, *tensor.Tensor, error) {
	if logits.Dims() != 2 || logits.Dim(0) != len(labels) {
		return 0, nil, nil, fmt.Errorf("%w: logits %v vs %d labels", ErrBadInput, logits.Shape(), len(labels))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	probs, err := tensor.SoftmaxRows(logits)
	if err != nil {
		return 0, nil, nil, err
	}
	grad := probs.Clone()
	gd := grad.Data()
	loss := 0.0
	for i, y := range labels {
		if y < 0 || y >= k {
			return 0, nil, nil, fmt.Errorf("%w: label %d out of [0,%d)", ErrBadInput, y, k)
		}
		p := probs.At(i, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		gd[i*k+y] -= 1
	}
	inv := 1.0 / float64(n)
	for i := range gd {
		gd[i] *= inv
	}
	return loss * inv, probs, grad, nil
}

// MSE is mean squared error over all elements of two same-shape tensors.
type MSE struct{}

// Loss returns ½·mean((pred-target)²) and the gradient with respect to pred.
func (MSE) Loss(pred, target *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if pred.Size() != target.Size() {
		return 0, nil, fmt.Errorf("%w: mse %v vs %v", ErrBadInput, pred.Shape(), target.Shape())
	}
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	loss := 0.0
	inv := 1.0 / float64(len(pd))
	for i := range pd {
		d := pd[i] - td[i]
		loss += 0.5 * d * d
		gd[i] = d * inv
	}
	return loss * inv, grad, nil
}

// Accuracy returns the fraction of rows of probs/logits [N,K] whose argmax
// equals the label.
func Accuracy(scores *tensor.Tensor, labels []int) float64 {
	if scores.Dims() != 2 || scores.Dim(0) != len(labels) || len(labels) == 0 {
		return 0
	}
	k := scores.Dim(1)
	correct := 0
	for i, y := range labels {
		row := scores.Data()[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == y {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
