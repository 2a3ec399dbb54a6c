package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LSTM is a single long short-term-memory layer over batched sequences of
// shape [N, T, D], producing the full hidden sequence [N, T, H] so that LSTM
// layers can be stacked (Fig. 7's LSTM 1 / LSTM 2). Backpropagation through
// time is exact.
type LSTM struct {
	in, hidden int

	wx, wh, b *Param // wx [D,4H], wh [H,4H], b [4H]

	// Forward cache (one entry per timestep).
	steps []lstmStep
	batch int
}

type lstmStep struct {
	x          *tensor.Tensor // [N,D]
	hPrev      *tensor.Tensor // [N,H]
	cPrev      *tensor.Tensor // [N,H]
	i, f, g, o *tensor.Tensor // gate activations [N,H]
	tanhC      *tensor.Tensor // [N,H]
}

var _ Layer = (*LSTM)(nil)

// NewLSTM creates an LSTM with input width in and hidden width hidden. The
// forget-gate bias is initialized to 1 (standard practice) so gradients flow
// early in training.
func NewLSTM(in, hidden int, opts ...Option) *LSTM {
	c := applyOptions(opts)
	std := 1.0 / math.Sqrt(float64(hidden))
	wx := tensor.RandUniform(c.rng, -std, std, in, 4*hidden)
	wh := tensor.RandUniform(c.rng, -std, std, hidden, 4*hidden)
	b := tensor.New(4 * hidden)
	for h := 0; h < hidden; h++ {
		b.Set(1, hidden+h) // forget gate block
	}
	name := fmt.Sprintf("lstm%dx%d", in, hidden)
	return &LSTM{
		in: in, hidden: hidden,
		wx: newParam(name+".wx", wx),
		wh: newParam(name+".wh", wh),
		b:  newParam(name+".b", b),
	}
}

// Forward consumes [N, T, D] and returns [N, T, H].
func (l *LSTM) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 3 || x.Dim(2) != l.in {
		return nil, fmt.Errorf("%w: lstm input %v, want [N,T,%d]", ErrBadInput, x.Shape(), l.in)
	}
	n, t := x.Dim(0), x.Dim(1)
	l.batch = n
	l.steps = l.steps[:0]
	out := tensor.New(n, t, l.hidden)

	h := tensor.New(n, l.hidden)
	cPrev := tensor.New(n, l.hidden)
	for step := 0; step < t; step++ {
		xt := tensor.New(n, l.in)
		for i := 0; i < n; i++ {
			copy(xt.Data()[i*l.in:(i+1)*l.in], x.Data()[(i*t+step)*l.in:(i*t+step+1)*l.in])
		}
		zx, err := tensor.MatMul(xt, l.wx.Value)
		if err != nil {
			return nil, fmt.Errorf("lstm zx: %w", err)
		}
		zh, err := tensor.MatMul(h, l.wh.Value)
		if err != nil {
			return nil, fmt.Errorf("lstm zh: %w", err)
		}
		if err := zx.AddInPlace(zh); err != nil {
			return nil, err
		}
		zd, bd := zx.Data(), l.b.Value.Data()
		hh := l.hidden
		ig := tensor.New(n, hh)
		fg := tensor.New(n, hh)
		gg := tensor.New(n, hh)
		og := tensor.New(n, hh)
		cNew := tensor.New(n, hh)
		tc := tensor.New(n, hh)
		hNew := tensor.New(n, hh)
		for i := 0; i < n; i++ {
			row := zd[i*4*hh : (i+1)*4*hh]
			for j := 0; j < hh; j++ {
				iv := sigmoid(row[j] + bd[j])
				fv := sigmoid(row[hh+j] + bd[hh+j])
				gv := math.Tanh(row[2*hh+j] + bd[2*hh+j])
				ov := sigmoid(row[3*hh+j] + bd[3*hh+j])
				cv := fv*cPrev.At(i, j) + iv*gv
				tcv := math.Tanh(cv)
				hv := ov * tcv
				ig.Set(iv, i, j)
				fg.Set(fv, i, j)
				gg.Set(gv, i, j)
				og.Set(ov, i, j)
				cNew.Set(cv, i, j)
				tc.Set(tcv, i, j)
				hNew.Set(hv, i, j)
			}
		}
		l.steps = append(l.steps, lstmStep{
			x: xt, hPrev: h, cPrev: cPrev,
			i: ig, f: fg, g: gg, o: og, tanhC: tc,
		})
		for i := 0; i < n; i++ {
			copy(out.Data()[(i*t+step)*hh:(i*t+step+1)*hh], hNew.Data()[i*hh:(i+1)*hh])
		}
		h, cPrev = hNew, cNew
	}
	return out, nil
}

// Backward consumes the gradient of shape [N, T, H] and returns the input
// gradient [N, T, D], accumulating parameter gradients via BPTT.
func (l *LSTM) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if len(l.steps) == 0 {
		return nil, ErrNotBuilt
	}
	t := len(l.steps)
	n, hh := l.batch, l.hidden
	if grad.Dims() != 3 || grad.Dim(0) != n || grad.Dim(1) != t || grad.Dim(2) != hh {
		return nil, fmt.Errorf("%w: lstm grad %v, want [%d,%d,%d]", ErrBadInput, grad.Shape(), n, t, hh)
	}
	dx := tensor.New(n, t, l.in)
	dhNext := tensor.New(n, hh)
	dcNext := tensor.New(n, hh)

	for step := t - 1; step >= 0; step-- {
		st := l.steps[step]
		dh := tensor.New(n, hh)
		for i := 0; i < n; i++ {
			for j := 0; j < hh; j++ {
				dh.Set(grad.At(i, step, j)+dhNext.At(i, j), i, j)
			}
		}
		dz := tensor.New(n, 4*hh)
		dcPrev := tensor.New(n, hh)
		for i := 0; i < n; i++ {
			for j := 0; j < hh; j++ {
				iv, fv, gv, ov := st.i.At(i, j), st.f.At(i, j), st.g.At(i, j), st.o.At(i, j)
				tcv := st.tanhC.At(i, j)
				dhv := dh.At(i, j)
				do := dhv * tcv
				dc := dhv*ov*(1-tcv*tcv) + dcNext.At(i, j)
				di := dc * gv
				df := dc * st.cPrev.At(i, j)
				dg := dc * iv
				dcPrev.Set(dc*fv, i, j)
				dz.Set(di*iv*(1-iv), i, j)
				dz.Set(df*fv*(1-fv), i, hh+j)
				dz.Set(dg*(1-gv*gv), i, 2*hh+j)
				dz.Set(do*ov*(1-ov), i, 3*hh+j)
			}
		}
		// Parameter gradients.
		dwx, err := tensor.MatMulTransA(st.x, dz)
		if err != nil {
			return nil, err
		}
		if err := l.wx.Grad.AddInPlace(dwx); err != nil {
			return nil, err
		}
		dwh, err := tensor.MatMulTransA(st.hPrev, dz)
		if err != nil {
			return nil, err
		}
		if err := l.wh.Grad.AddInPlace(dwh); err != nil {
			return nil, err
		}
		bg := l.b.Grad.Data()
		zd := dz.Data()
		for i := 0; i < n; i++ {
			row := zd[i*4*hh : (i+1)*4*hh]
			for j, v := range row {
				bg[j] += v
			}
		}
		// Input and recurrent gradients.
		dxt, err := tensor.MatMulTransB(dz, l.wx.Value)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			copy(dx.Data()[(i*t+step)*l.in:(i*t+step+1)*l.in], dxt.Data()[i*l.in:(i+1)*l.in])
		}
		dhNext, err = tensor.MatMulTransB(dz, l.wh.Value)
		if err != nil {
			return nil, err
		}
		dcNext = dcPrev
	}
	return dx, nil
}

// Params returns the input, recurrent, and bias parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// LastStep selects the final timestep of a [N, T, H] sequence, producing
// [N, H]. It is the glue between stacked LSTMs and a Dense classifier head.
type LastStep struct {
	lastShape []int
}

var _ Layer = (*LastStep)(nil)

// NewLastStep creates a LastStep layer.
func NewLastStep() *LastStep { return &LastStep{} }

// Forward extracts x[:, T-1, :].
func (s *LastStep) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 3 {
		return nil, fmt.Errorf("%w: laststep input %v", ErrBadInput, x.Shape())
	}
	n, t, h := x.Dim(0), x.Dim(1), x.Dim(2)
	s.lastShape = x.Shape()
	out := tensor.New(n, h)
	for i := 0; i < n; i++ {
		copy(out.Data()[i*h:(i+1)*h], x.Data()[(i*t+t-1)*h:(i*t+t)*h])
	}
	return out, nil
}

// Backward scatters the gradient into the final timestep slot.
func (s *LastStep) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if s.lastShape == nil {
		return nil, ErrNotBuilt
	}
	n, t, h := s.lastShape[0], s.lastShape[1], s.lastShape[2]
	if grad.Dims() != 2 || grad.Dim(0) != n || grad.Dim(1) != h {
		return nil, fmt.Errorf("%w: laststep grad %v", ErrBadInput, grad.Shape())
	}
	dx := tensor.New(n, t, h)
	for i := 0; i < n; i++ {
		copy(dx.Data()[(i*t+t-1)*h:(i*t+t)*h], grad.Data()[i*h:(i+1)*h])
	}
	return dx, nil
}

// Params returns nil: LastStep has no parameters.
func (s *LastStep) Params() []*Param { return nil }
