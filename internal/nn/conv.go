package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches implemented via im2col +
// matrix multiply. Weights have shape [outC, inC*KH*KW].
type Conv2D struct {
	inC, outC    int
	kh, kw       int
	stride, pad  int
	w, b         *Param
	lastGeom     tensor.ConvGeom
	lastCols     []*tensor.Tensor // per-sample im2col matrices
	lastBatch    int
	lastOutH     int
	lastOutW     int
	forwardValid bool
}

var _ Layer = (*Conv2D)(nil)

// ConvConfig describes a Conv2D layer.
type ConvConfig struct {
	InC, OutC int
	Kernel    int // square kernel size
	Stride    int
	Pad       int
}

// NewConv2D creates a convolution layer with He-initialized filters.
func NewConv2D(cfg ConvConfig, opts ...Option) *Conv2D {
	c := applyOptions(opts)
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	fanIn := cfg.InC * cfg.Kernel * cfg.Kernel
	w := tensor.Randn(c.rng, heStd(fanIn), cfg.OutC, fanIn)
	b := tensor.New(cfg.OutC)
	name := fmt.Sprintf("conv%dx%dk%d", cfg.InC, cfg.OutC, cfg.Kernel)
	return &Conv2D{
		inC: cfg.InC, outC: cfg.OutC,
		kh: cfg.Kernel, kw: cfg.Kernel,
		stride: cfg.Stride, pad: cfg.Pad,
		w: newParam(name+".w", w),
		b: newParam(name+".b", b),
	}
}

// Forward convolves a batch of shape [N, inC, H, W].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 4 || x.Dim(1) != c.inC {
		return nil, fmt.Errorf("%w: conv input %v, want [N,%d,H,W]", ErrBadInput, x.Shape(), c.inC)
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	g := tensor.ConvGeom{InC: c.inC, InH: h, InW: w, KH: c.kh, KW: c.kw, Stride: c.stride, Pad: c.pad}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	oh, ow := g.OutH(), g.OutW()
	out := tensor.New(n, c.outC, oh, ow)
	c.lastGeom = g
	c.lastBatch, c.lastOutH, c.lastOutW = n, oh, ow
	if cap(c.lastCols) < n {
		c.lastCols = make([]*tensor.Tensor, n)
	}
	c.lastCols = c.lastCols[:n]

	imgLen := c.inC * h * w
	outLen := c.outC * oh * ow
	bd := c.b.Value.Data()
	for i := 0; i < n; i++ {
		img, err := tensor.FromSlice(x.Data()[i*imgLen:(i+1)*imgLen], c.inC, h, w)
		if err != nil {
			return nil, err
		}
		cols, err := tensor.Im2Col(img, g)
		if err != nil {
			return nil, fmt.Errorf("conv im2col: %w", err)
		}
		c.lastCols[i] = cols
		prod, err := tensor.MatMul(c.w.Value, cols)
		if err != nil {
			return nil, fmt.Errorf("conv matmul: %w", err)
		}
		dst := out.Data()[i*outLen : (i+1)*outLen]
		copy(dst, prod.Data())
		for oc := 0; oc < c.outC; oc++ {
			plane := dst[oc*oh*ow : (oc+1)*oh*ow]
			bias := bd[oc]
			for j := range plane {
				plane[j] += bias
			}
		}
	}
	c.forwardValid = true
	return out, nil
}

// Backward accumulates filter/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if !c.forwardValid {
		return nil, ErrNotBuilt
	}
	n, oh, ow := c.lastBatch, c.lastOutH, c.lastOutW
	if grad.Dims() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.outC || grad.Dim(2) != oh || grad.Dim(3) != ow {
		return nil, fmt.Errorf("%w: conv grad %v", ErrBadInput, grad.Shape())
	}
	g := c.lastGeom
	dx := tensor.New(n, c.inC, g.InH, g.InW)
	outLen := c.outC * oh * ow
	imgLen := c.inC * g.InH * g.InW
	bg := c.b.Grad.Data()
	for i := 0; i < n; i++ {
		gslice := grad.Data()[i*outLen : (i+1)*outLen]
		gm, err := tensor.FromSlice(gslice, c.outC, oh*ow)
		if err != nil {
			return nil, err
		}
		// Bias gradient: sum over spatial positions.
		for oc := 0; oc < c.outC; oc++ {
			plane := gslice[oc*oh*ow : (oc+1)*oh*ow]
			s := 0.0
			for _, v := range plane {
				s += v
			}
			bg[oc] += s
		}
		// Filter gradient: g [outC, OH*OW] · colsᵀ [OH*OW, inC*KH*KW].
		dw, err := tensor.MatMulTransB(gm, c.lastCols[i])
		if err != nil {
			return nil, fmt.Errorf("conv dW: %w", err)
		}
		if err := c.w.Grad.AddInPlace(dw); err != nil {
			return nil, err
		}
		// Input gradient: Wᵀ·g scattered back through col2im.
		dcols, err := tensor.MatMulTransA(c.w.Value, gm)
		if err != nil {
			return nil, fmt.Errorf("conv dcols: %w", err)
		}
		dimg, err := tensor.Col2Im(dcols, g)
		if err != nil {
			return nil, fmt.Errorf("conv col2im: %w", err)
		}
		copy(dx.Data()[i*imgLen:(i+1)*imgLen], dimg.Data())
	}
	return dx, nil
}

// Params returns the filter and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// MaxPool2D is a max-pooling layer over NCHW batches with a square window.
type MaxPool2D struct {
	k, stride  int
	lastShape  []int
	lastArgmax []int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D creates a max-pool layer with window k and stride s (s=k when
// s is zero).
func NewMaxPool2D(k, s int) *MaxPool2D {
	if s == 0 {
		s = k
	}
	return &MaxPool2D{k: k, stride: s}
}

// Forward pools each channel plane, caching argmax positions.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: maxpool input %v", ErrBadInput, x.Shape())
	}
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-m.k)/m.stride + 1
	ow := (w-m.k)/m.stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: maxpool window %d on %dx%d", ErrBadInput, m.k, h, w)
	}
	out := tensor.New(n, ch, oh, ow)
	m.lastShape = x.Shape()
	if cap(m.lastArgmax) < out.Size() {
		m.lastArgmax = make([]int, out.Size())
	}
	m.lastArgmax = m.lastArgmax[:out.Size()]
	src, dst := x.Data(), out.Data()
	oi := 0
	for i := 0; i < n; i++ {
		for c := 0; c < ch; c++ {
			plane := src[(i*ch+c)*h*w:]
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					best := plane[(y*m.stride)*w+xx*m.stride]
					bestAt := (i*ch+c)*h*w + (y*m.stride)*w + xx*m.stride
					for ky := 0; ky < m.k; ky++ {
						for kx := 0; kx < m.k; kx++ {
							sy, sx := y*m.stride+ky, xx*m.stride+kx
							v := plane[sy*w+sx]
							if v > best {
								best = v
								bestAt = (i*ch+c)*h*w + sy*w + sx
							}
						}
					}
					dst[oi] = best
					m.lastArgmax[oi] = bestAt
					oi++
				}
			}
		}
	}
	return out, nil
}

// Backward routes each output gradient to the input position that won the max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.lastShape == nil || grad.Size() != len(m.lastArgmax) {
		return nil, ErrNotBuilt
	}
	dx := tensor.New(m.lastShape...)
	dd := dx.Data()
	for oi, v := range grad.Data() {
		dd[m.lastArgmax[oi]] += v
	}
	return dx, nil
}

// Params returns nil: pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [N,C,H,W] to [N,C] by averaging each channel plane.
type GlobalAvgPool struct {
	lastShape []int
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages spatial positions per channel.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: gap input %v", ErrBadInput, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.lastShape = x.Shape()
	out := tensor.New(n, c)
	src := x.Data()
	area := float64(h * w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := src[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			s := 0.0
			for _, v := range plane {
				s += v
			}
			out.Set(s/area, i, ch)
		}
	}
	return out, nil
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if g.lastShape == nil {
		return nil, ErrNotBuilt
	}
	n, c, h, w := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	if grad.Dims() != 2 || grad.Dim(0) != n || grad.Dim(1) != c {
		return nil, fmt.Errorf("%w: gap grad %v", ErrBadInput, grad.Shape())
	}
	dx := tensor.New(n, c, h, w)
	inv := 1.0 / float64(h*w)
	dd := dx.Data()
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			v := grad.At(i, ch) * inv
			plane := dd[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for j := range plane {
				plane[j] = v
			}
		}
	}
	return dx, nil
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)]. It exists so convolutional
// stems can feed Dense heads inside a Sequential.
type Flatten struct {
	lastShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten creates a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all non-batch dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() < 2 {
		return nil, fmt.Errorf("%w: flatten input %v", ErrBadInput, x.Shape())
	}
	f.lastShape = x.Shape()
	return x.Reshape(x.Dim(0), -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.lastShape == nil {
		return nil, ErrNotBuilt
	}
	return grad.Reshape(f.lastShape...)
}

// Params returns nil: Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
