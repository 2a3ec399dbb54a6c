package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b over batches of
// shape [N, in]. It is the paper's "fully connected" classifier component
// (FC1/FC2 in Fig. 7).
type Dense struct {
	in, out int
	w, b    *Param
	lastX   *tensor.Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense creates a Dense layer with He-initialized weights.
func NewDense(in, out int, opts ...Option) *Dense {
	c := applyOptions(opts)
	w := tensor.Randn(c.rng, heStd(in), in, out)
	b := tensor.New(out)
	return &Dense{
		in:  in,
		out: out,
		w:   newParam(fmt.Sprintf("dense%dx%d.w", in, out), w),
		b:   newParam(fmt.Sprintf("dense%dx%d.b", in, out), b),
	}
}

// Forward computes x·W + b for x of shape [N, in]. Inputs of higher rank are
// flattened to [N, in] first.
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 2 {
		if x.Dims() < 1 || x.Size()%x.Dim(0) != 0 {
			return nil, fmt.Errorf("%w: dense input %v", ErrBadInput, x.Shape())
		}
		var err error
		x, err = x.Reshape(x.Dim(0), -1)
		if err != nil {
			return nil, fmt.Errorf("dense flatten: %w", err)
		}
	}
	if x.Dim(1) != d.in {
		return nil, fmt.Errorf("%w: dense expects width %d, got %v", ErrBadInput, d.in, x.Shape())
	}
	d.lastX = x
	y, err := tensor.MatMul(x, d.w.Value)
	if err != nil {
		return nil, fmt.Errorf("dense matmul: %w", err)
	}
	n := x.Dim(0)
	yd, bd := y.Data(), d.b.Value.Data()
	for i := 0; i < n; i++ {
		row := yd[i*d.out : (i+1)*d.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y, nil
}

// Backward accumulates dL/dW = xᵀ·g and dL/db = Σ g rows, returning g·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastX == nil {
		return nil, ErrNotBuilt
	}
	if grad.Dims() != 2 || grad.Dim(0) != d.lastX.Dim(0) || grad.Dim(1) != d.out {
		return nil, fmt.Errorf("%w: dense grad %v", ErrBadInput, grad.Shape())
	}
	dw, err := tensor.MatMulTransA(d.lastX, grad)
	if err != nil {
		return nil, fmt.Errorf("dense dW: %w", err)
	}
	if err := d.w.Grad.AddInPlace(dw); err != nil {
		return nil, err
	}
	n := grad.Dim(0)
	gd, bg := grad.Data(), d.b.Grad.Data()
	for i := 0; i < n; i++ {
		row := gd[i*d.out : (i+1)*d.out]
		for j, v := range row {
			bg[j] += v
		}
	}
	dx, err := tensor.MatMulTransB(grad, d.w.Value)
	if err != nil {
		return nil, fmt.Errorf("dense dX: %w", err)
	}
	return dx, nil
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
