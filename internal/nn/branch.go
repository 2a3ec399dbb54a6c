package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// ExitPolicy is the one early-exit gate (paper Figs. 5 and 7): a local
// (edge/fog) prediction whose confidence score clears the threshold is
// accepted, and any other sends its feature map upstream. Each path supplies
// its own score — the detector's top classification score, the negated
// entropy of BranchNet's exit-1 output, or a frame's local confidence.
type ExitPolicy struct {
	Threshold float64
}

// Exits reports whether a local prediction with the given confidence score
// is accepted locally. A score equal to the threshold exits.
func (p ExitPolicy) Exits(score float64) bool {
	return score >= p.Threshold
}

// BranchNet is an early-exit network split between a local device and an
// analysis server: a shared Stem computes an intermediate feature map, a
// small Exit1 head answers locally, and a deeper Tail continues from the
// same feature map on the server (paper Figs. 5 and 7). Both heads are
// trained jointly under one caller-supplied loss.
type BranchNet struct {
	Stem  Layer
	Exit1 Layer
	Tail  Layer

	// Exit1Weight scales the exit-1 loss during joint training.
	Exit1Weight float64
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
// feature map (what would be shipped upstream on a miss) and the exit-1
// head's raw output.
func (b *BranchNet) LocalForward(x *tensor.Tensor) (feature, out *tensor.Tensor, err error) {
	feature, err = b.Stem.Forward(x, false)
	if err != nil {
		return nil, nil, fmt.Errorf("branch stem: %w", err)
	}
	out, err = b.Exit1.Forward(feature, false)
	if err != nil {
		return nil, nil, fmt.Errorf("branch exit1: %w", err)
	}
	return feature, out, nil
}

// ServerForward continues from a previously computed feature map through the
// tail, returning its raw output.
func (b *BranchNet) ServerForward(feature *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := b.Tail.Forward(feature, false)
	if err != nil {
		return nil, fmt.Errorf("branch tail: %w", err)
	}
	return out, nil
}

// TrainStep performs one joint training step on a batch, scoring both heads
// with loss and accumulating gradients into the network parameters, and
// returns the two head losses. The caller applies an Optimizer afterwards.
func (b *BranchNet) TrainStep(x *tensor.Tensor, loss HeadLoss) (exit1Loss, tailLoss float64, err error) {
	feature, err := b.Stem.Forward(x, true)
	if err != nil {
		return 0, 0, fmt.Errorf("branch stem: %w", err)
	}
	out1, err := b.Exit1.Forward(feature, true)
	if err != nil {
		return 0, 0, fmt.Errorf("branch exit1: %w", err)
	}
	out2, err := b.Tail.Forward(feature, true)
	if err != nil {
		return 0, 0, fmt.Errorf("branch tail: %w", err)
	}
	l1, g1, err := loss(out1)
	if err != nil {
		return 0, 0, err
	}
	l2, g2, err := loss(out2)
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

// TrainEpoch runs one epoch of joint training over x through the epoch
// loop: each batch, the last one short if batch does not divide the rows,
// takes one TrainStep under lossFor(its row indices). It returns the mean
// exit-1 and tail losses over the batches.
func (b *BranchNet) TrainEpoch(x *tensor.Tensor, batch int, opt Optimizer, rng *rand.Rand, lossFor func(idx []int) HeadLoss) (exit1Loss, tailLoss float64, err error) {
	return epoch(x, batch, b.Params(), opt, rng, func(bx *tensor.Tensor, idx []int) (float64, float64, error) {
		return b.TrainStep(bx, lossFor(idx))
	})
}

// InferResult records one early-exit inference decision.
type InferResult struct {
	Class       int
	ExitedLocal bool
	// FeatureBytes is the size in bytes of the feature map that was (or
	// would have been) shipped to the server: 8 bytes per float64 element.
	FeatureBytes int
}

// Infer classifies one batch under an exit policy. A row's score is the
// negated entropy of its exit-1 output (higher = confident); rows the policy
// lets exit take the local answer, and the rest are re-scored by the server
// tail, exactly as in the paper's Figs. 5 and 7.
func (b *BranchNet) Infer(x *tensor.Tensor, policy ExitPolicy) ([]InferResult, error) {
	feature, logits, err := b.LocalForward(x)
	if err != nil {
		return nil, err
	}
	probs, err := tensor.SoftmaxRows(logits)
	if err != nil {
		return nil, err
	}
	n := probs.Dim(0)
	k := probs.Dim(1)
	results := make([]InferResult, n)
	var missIdx []int
	for i := 0; i < n; i++ {
		row := probs.Data()[i*k : (i+1)*k]
		if policy.Exits(-tensor.Entropy(row)) {
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			results[i] = InferResult{Class: best, ExitedLocal: true}
		} else {
			results[i] = InferResult{FeatureBytes: feature.Size() / n * 8}
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		sub, err := GatherRows(feature, missIdx)
		if err != nil {
			return nil, err
		}
		serverLogits, err := b.ServerForward(sub)
		if err != nil {
			return nil, err
		}
		serverProbs, err := tensor.SoftmaxRows(serverLogits)
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
