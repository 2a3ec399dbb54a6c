package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes activations per feature (rank-2 [N,F] inputs) or per
// channel (rank-4 [N,C,H,W] inputs), with learned scale and shift and
// running statistics for inference.
type BatchNorm struct {
	features int
	eps      float64
	momentum float64

	gamma, beta *Param

	runningMean []float64
	runningVar  []float64

	// Forward cache.
	lastXHat  *tensor.Tensor
	lastShape []int
	lastStd   []float64 // per-feature sqrt(var+eps)
	groupSize int
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm creates a BatchNorm over the given feature/channel count.
func NewBatchNorm(features int) *BatchNorm {
	gamma := tensor.Full(1, features)
	beta := tensor.New(features)
	rv := make([]float64, features)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm{
		features:    features,
		eps:         1e-5,
		momentum:    0.9,
		gamma:       newParam(fmt.Sprintf("bn%d.gamma", features), gamma),
		beta:        newParam(fmt.Sprintf("bn%d.beta", features), beta),
		runningMean: make([]float64, features),
		runningVar:  rv,
	}
}

// featureOf maps a flat index of shape [N,C,H,W] or [N,F] to its feature id.
func (b *BatchNorm) iterate(x *tensor.Tensor, visit func(feature, flat int)) error {
	switch x.Dims() {
	case 2:
		if x.Dim(1) != b.features {
			return fmt.Errorf("%w: batchnorm width %d, want %d", ErrBadInput, x.Dim(1), b.features)
		}
		n := x.Dim(0)
		for i := 0; i < n; i++ {
			for f := 0; f < b.features; f++ {
				visit(f, i*b.features+f)
			}
		}
		return nil
	case 4:
		if x.Dim(1) != b.features {
			return fmt.Errorf("%w: batchnorm channels %d, want %d", ErrBadInput, x.Dim(1), b.features)
		}
		n, c, area := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
		for i := 0; i < n; i++ {
			for ch := 0; ch < c; ch++ {
				base := (i*c + ch) * area
				for j := 0; j < area; j++ {
					visit(ch, base+j)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: batchnorm rank %d", ErrBadInput, x.Dims())
	}
}

// Forward normalizes x using batch statistics (train) or running statistics
// (inference).
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	mean := make([]float64, b.features)
	variance := make([]float64, b.features)
	count := make([]float64, b.features)

	if train {
		src := x.Data()
		if err := b.iterate(x, func(f, flat int) {
			mean[f] += src[flat]
			count[f]++
		}); err != nil {
			return nil, err
		}
		for f := range mean {
			if count[f] > 0 {
				mean[f] /= count[f]
			}
		}
		if err := b.iterate(x, func(f, flat int) {
			d := src[flat] - mean[f]
			variance[f] += d * d
		}); err != nil {
			return nil, err
		}
		for f := range variance {
			if count[f] > 0 {
				variance[f] /= count[f]
			}
			b.runningMean[f] = b.momentum*b.runningMean[f] + (1-b.momentum)*mean[f]
			b.runningVar[f] = b.momentum*b.runningVar[f] + (1-b.momentum)*variance[f]
		}
	} else {
		copy(mean, b.runningMean)
		copy(variance, b.runningVar)
	}

	std := make([]float64, b.features)
	for f := range std {
		std[f] = math.Sqrt(variance[f] + b.eps)
	}
	out := tensor.New(x.Shape()...)
	xhat := tensor.New(x.Shape()...)
	src, dst, hd := x.Data(), out.Data(), xhat.Data()
	gd, bd := b.gamma.Value.Data(), b.beta.Value.Data()
	if err := b.iterate(x, func(f, flat int) {
		h := (src[flat] - mean[f]) / std[f]
		hd[flat] = h
		dst[flat] = gd[f]*h + bd[f]
	}); err != nil {
		return nil, err
	}
	if train {
		b.lastXHat = xhat
		b.lastShape = x.Shape()
		b.lastStd = std
		gs := x.Size() / b.features
		b.groupSize = gs
	}
	return out, nil
}

// Backward implements the full batch-norm gradient.
func (b *BatchNorm) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if b.lastXHat == nil || grad.Size() != b.lastXHat.Size() {
		return nil, ErrNotBuilt
	}
	sumG := make([]float64, b.features)
	sumGH := make([]float64, b.features)
	gd := grad.Data()
	hd := b.lastXHat.Data()
	if err := b.iterate(grad, func(f, flat int) {
		sumG[f] += gd[flat]
		sumGH[f] += gd[flat] * hd[flat]
	}); err != nil {
		return nil, err
	}
	gammaGrad, betaGrad := b.gamma.Grad.Data(), b.beta.Grad.Data()
	for f := 0; f < b.features; f++ {
		gammaGrad[f] += sumGH[f]
		betaGrad[f] += sumG[f]
	}
	dx := tensor.New(b.lastShape...)
	dd := dx.Data()
	m := float64(b.groupSize)
	gv := b.gamma.Value.Data()
	if err := b.iterate(grad, func(f, flat int) {
		dd[flat] = (gv[f] / b.lastStd[f]) * (gd[flat] - sumG[f]/m - hd[flat]*sumGH[f]/m)
	}); err != nil {
		return nil, err
	}
	return dx, nil
}

// Params returns gamma and beta.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }
