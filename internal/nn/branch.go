package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ConfidenceMetric selects how an early-exit gate scores a local prediction
// (paper Fig. 5 uses the classification score; Fig. 7 uses the entropy of
// the exit-1 output).
type ConfidenceMetric int

const (
	// MaxProb gates on the maximum softmax probability (higher = confident).
	MaxProb ConfidenceMetric = iota + 1
	// NegEntropy gates on the negated Shannon entropy of the softmax output
	// (higher = confident), matching the paper's entropy-score description.
	NegEntropy
)

// String names the metric for reports.
func (m ConfidenceMetric) String() string {
	switch m {
	case MaxProb:
		return "max-prob"
	case NegEntropy:
		return "neg-entropy"
	default:
		return "unknown"
	}
}

// ExitPolicy decides whether a local (edge/fog) prediction is confident
// enough to skip the server path.
type ExitPolicy struct {
	Metric    ConfidenceMetric
	Threshold float64
}

// Confidence scores a probability row under the policy's metric.
func (p ExitPolicy) Confidence(probs []float64) float64 {
	switch p.Metric {
	case NegEntropy:
		return -tensor.Entropy(probs)
	default:
		best := 0.0
		for _, v := range probs {
			if v > best {
				best = v
			}
		}
		return best
	}
}

// ShouldExit reports whether the local prediction should be accepted.
func (p ExitPolicy) ShouldExit(probs []float64) bool {
	return p.Confidence(probs) >= p.Threshold
}

// BranchNet is an early-exit network split between a local device and an
// analysis server: a shared Stem computes an intermediate feature map, a
// small Exit1 head classifies locally, and a deeper Tail continues from the
// same feature map on the server (paper Figs. 5 and 7). Both heads are
// trained jointly against the same labels.
type BranchNet struct {
	Stem  Layer
	Exit1 Layer
	Tail  Layer

	// Exit1Weight scales the exit-1 loss during joint training.
	Exit1Weight float64

	loss SoftmaxCrossEntropy
}

// NewBranchNet assembles an early-exit network.
func NewBranchNet(stem, exit1, tail Layer) *BranchNet {
	return &BranchNet{Stem: stem, Exit1: exit1, Tail: tail, Exit1Weight: 0.5}
}

// Params returns all parameters of stem, exit head, and tail.
func (b *BranchNet) Params() []*Param {
	ps := append(b.Stem.Params(), b.Exit1.Params()...)
	return append(ps, b.Tail.Params()...)
}

// LocalForward runs the stem and the exit-1 head, returning the intermediate
// feature map (what would be shipped upstream on a miss) and the local
// class probabilities.
func (b *BranchNet) LocalForward(x *tensor.Tensor) (feature, probs *tensor.Tensor, err error) {
	feature, err = b.Stem.Forward(x, false)
	if err != nil {
		return nil, nil, fmt.Errorf("branch stem: %w", err)
	}
	logits, err := b.Exit1.Forward(feature, false)
	if err != nil {
		return nil, nil, fmt.Errorf("branch exit1: %w", err)
	}
	probs, err = tensor.SoftmaxRows(logits)
	if err != nil {
		return nil, nil, err
	}
	return feature, probs, nil
}

// ServerForward continues from a previously computed feature map through the
// tail, returning class probabilities.
func (b *BranchNet) ServerForward(feature *tensor.Tensor) (*tensor.Tensor, error) {
	logits, err := b.Tail.Forward(feature, false)
	if err != nil {
		return nil, fmt.Errorf("branch tail: %w", err)
	}
	return tensor.SoftmaxRows(logits)
}

// TrainStep performs one joint training step on a batch, accumulating
// gradients into the network parameters, and returns the two head losses.
// The caller applies an Optimizer afterwards.
func (b *BranchNet) TrainStep(x *tensor.Tensor, labels []int) (exit1Loss, tailLoss float64, err error) {
	feature, err := b.Stem.Forward(x, true)
	if err != nil {
		return 0, 0, fmt.Errorf("branch stem: %w", err)
	}
	logits1, err := b.Exit1.Forward(feature, true)
	if err != nil {
		return 0, 0, fmt.Errorf("branch exit1: %w", err)
	}
	logits2, err := b.Tail.Forward(feature, true)
	if err != nil {
		return 0, 0, fmt.Errorf("branch tail: %w", err)
	}
	l1, _, g1, err := b.loss.Loss(logits1, labels)
	if err != nil {
		return 0, 0, err
	}
	l2, _, g2, err := b.loss.Loss(logits2, labels)
	if err != nil {
		return 0, 0, err
	}
	g1.Scale(b.Exit1Weight)
	gf1, err := b.Exit1.Backward(g1)
	if err != nil {
		return 0, 0, fmt.Errorf("branch exit1 back: %w", err)
	}
	gf2, err := b.Tail.Backward(g2)
	if err != nil {
		return 0, 0, fmt.Errorf("branch tail back: %w", err)
	}
	if err := gf1.AddInPlace(gf2); err != nil {
		return 0, 0, err
	}
	if _, err := b.Stem.Backward(gf1); err != nil {
		return 0, 0, fmt.Errorf("branch stem back: %w", err)
	}
	return l1, l2, nil
}

// InferResult records one early-exit inference decision.
type InferResult struct {
	Class       int
	ExitedLocal bool
	// FeatureBytes is the size in bytes of the feature map that was (or
	// would have been) shipped to the server: 8 bytes per float64 element.
	FeatureBytes int
}

// Infer classifies one batch under an exit policy. Rows whose local
// confidence clears the threshold take the local answer; the rest are
// re-scored by the server tail, exactly as in the paper's Figs. 5 and 7.
func (b *BranchNet) Infer(x *tensor.Tensor, policy ExitPolicy) ([]InferResult, error) {
	feature, probs, err := b.LocalForward(x)
	if err != nil {
		return nil, err
	}
	n := probs.Dim(0)
	k := probs.Dim(1)
	featPer := feature.Size() / n * 8
	results := make([]InferResult, n)
	var missIdx []int
	for i := 0; i < n; i++ {
		row := probs.Data()[i*k : (i+1)*k]
		if policy.Confidence(row) >= policy.Threshold {
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			results[i] = InferResult{Class: best, ExitedLocal: true}
		} else {
			results[i] = InferResult{FeatureBytes: featPer}
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		sub, err := GatherRows(feature, missIdx)
		if err != nil {
			return nil, err
		}
		serverProbs, err := b.ServerForward(sub)
		if err != nil {
			return nil, err
		}
		sk := serverProbs.Dim(1)
		for mi, i := range missIdx {
			row := serverProbs.Data()[mi*sk : (mi+1)*sk]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			results[i].Class = best
		}
	}
	return results, nil
}

// GatherRows selects the given first-dimension indices from x, returning a
// new tensor with the same trailing shape.
func GatherRows(x *tensor.Tensor, idx []int) (*tensor.Tensor, error) {
	if x.Dims() < 1 {
		return nil, fmt.Errorf("%w: gather on scalar", ErrBadInput)
	}
	shape := x.Shape()
	rowLen := 1
	for _, d := range shape[1:] {
		rowLen *= d
	}
	outShape := append([]int{len(idx)}, shape[1:]...)
	out := tensor.New(outShape...)
	for o, i := range idx {
		if i < 0 || i >= shape[0] {
			return nil, fmt.Errorf("%w: gather index %d of %d", ErrBadInput, i, shape[0])
		}
		copy(out.Data()[o*rowLen:(o+1)*rowLen], x.Data()[i*rowLen:(i+1)*rowLen])
	}
	return out, nil
}
