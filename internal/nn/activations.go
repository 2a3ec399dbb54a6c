package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative inputs and remembers the active mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := x.Clone()
	if cap(r.mask) < x.Size() {
		r.mask = make([]bool, x.Size())
	}
	r.mask = r.mask[:x.Size()]
	d := out.Data()
	for i, v := range d {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			d[i] = 0
		}
	}
	return out, nil
}

// Backward passes gradient only through positive activations.
func (r *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.mask == nil || len(r.mask) != grad.Size() {
		return nil, ErrNotBuilt
	}
	out := grad.Clone()
	d := out.Data()
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return out, nil
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is max(x, alpha*x), the activation used by YOLO-family
// detectors.
type LeakyReLU struct {
	Alpha float64
	lastX *tensor.Tensor
}

var _ Layer = (*LeakyReLU)(nil)

// NewLeakyReLU creates a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	l.lastX = x
	a := l.Alpha
	return x.Apply(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return a * v
	}), nil
}

// Backward scales gradient by 1 or Alpha depending on the cached input sign.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastX == nil || l.lastX.Size() != grad.Size() {
		return nil, ErrNotBuilt
	}
	out := grad.Clone()
	xd, gd := l.lastX.Data(), out.Data()
	for i := range gd {
		if xd[i] <= 0 {
			gd[i] *= l.Alpha
		}
	}
	return out, nil
}

// Params returns nil: LeakyReLU has no parameters.
func (l *LeakyReLU) Params() []*Param { return nil }

// sigmoid is the logistic function, shared by the LSTM gates and the
// binary cross-entropy loss.
func sigmoid(v float64) float64 { return 1.0 / (1.0 + math.Exp(-v)) }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastY *tensor.Tensor
}

var _ Layer = (*Tanh)(nil)

// NewTanh creates a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	y := x.Apply(math.Tanh)
	t.lastY = y
	return y, nil
}

// Backward multiplies by 1 - y².
func (t *Tanh) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if t.lastY == nil || t.lastY.Size() != grad.Size() {
		return nil, ErrNotBuilt
	}
	out := grad.Clone()
	yd, gd := t.lastY.Data(), out.Data()
	for i := range gd {
		gd[i] *= 1 - yd[i]*yd[i]
	}
	return out, nil
}

// Params returns nil: Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }
