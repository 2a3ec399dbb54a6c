package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ChannelConcat merges the channel dimension of several same-spatial-shape
// NCHW tensors. It is the join at the end of an Inception block's parallel
// branches.
type ChannelConcat struct{}

// concatChannels concatenates NCHW tensors along dim 1.
func concatChannels(parts []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: concat of nothing", ErrBadInput)
	}
	n, h, w := parts[0].Dim(0), parts[0].Dim(2), parts[0].Dim(3)
	totalC := 0
	for _, p := range parts {
		if p.Dims() != 4 || p.Dim(0) != n || p.Dim(2) != h || p.Dim(3) != w {
			return nil, fmt.Errorf("%w: concat shapes %v vs %v", ErrBadInput, parts[0].Shape(), p.Shape())
		}
		totalC += p.Dim(1)
	}
	out := tensor.New(n, totalC, h, w)
	area := h * w
	for i := 0; i < n; i++ {
		off := 0
		for _, p := range parts {
			c := p.Dim(1)
			src := p.Data()[i*c*area : (i+1)*c*area]
			dst := out.Data()[(i*totalC+off)*area : (i*totalC+off+c)*area]
			copy(dst, src)
			off += c
		}
	}
	return out, nil
}

// splitChannels is the inverse of concatChannels given the branch channel
// counts.
func splitChannels(x *tensor.Tensor, channels []int) ([]*tensor.Tensor, error) {
	n, totalC, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	sum := 0
	for _, c := range channels {
		sum += c
	}
	if sum != totalC {
		return nil, fmt.Errorf("%w: split %v from %d channels", ErrBadInput, channels, totalC)
	}
	area := h * w
	parts := make([]*tensor.Tensor, len(channels))
	off := 0
	for bi, c := range channels {
		p := tensor.New(n, c, h, w)
		for i := 0; i < n; i++ {
			src := x.Data()[(i*totalC+off)*area : (i*totalC+off+c)*area]
			copy(p.Data()[i*c*area:(i+1)*c*area], src)
		}
		parts[bi] = p
		off += c
	}
	return parts, nil
}

// InceptionBlock is the GoogLeNet-style module the paper's §III.A includes
// among its CNN variants: parallel 1×1, 3×3 (via 1×1 reduce), 5×5 (via 1×1
// reduce), and pool-projection branches whose outputs concatenate along the
// channel axis. All branches preserve spatial size.
type InceptionBlock struct {
	branches  []*Sequential
	outPerArm []int
	lastInput *tensor.Tensor
}

var _ Layer = (*InceptionBlock)(nil)

// InceptionConfig sizes the four branches.
type InceptionConfig struct {
	InC int
	// Out1x1, Out3x3, Out5x5, OutPool are the per-branch output channels.
	Out1x1, Out3x3, Out5x5, OutPool int
	// Reduce3x3 and Reduce5x5 are the 1×1 bottleneck widths before the
	// larger convolutions.
	Reduce3x3, Reduce5x5 int
}

// OutChannels returns the block's total output channels.
func (c InceptionConfig) OutChannels() int { return c.Out1x1 + c.Out3x3 + c.Out5x5 + c.OutPool }

// NewInceptionBlock builds the module.
func NewInceptionBlock(cfg InceptionConfig, opts ...Option) (*InceptionBlock, error) {
	if cfg.InC <= 0 || cfg.Out1x1 <= 0 || cfg.Out3x3 <= 0 || cfg.Out5x5 <= 0 || cfg.OutPool <= 0 {
		return nil, fmt.Errorf("%w: inception config %+v", ErrBadInput, cfg)
	}
	if cfg.Reduce3x3 <= 0 {
		cfg.Reduce3x3 = cfg.Out3x3
	}
	if cfg.Reduce5x5 <= 0 {
		cfg.Reduce5x5 = cfg.Out5x5
	}
	b1 := NewSequential(
		NewConv2D(ConvConfig{InC: cfg.InC, OutC: cfg.Out1x1, Kernel: 1}, opts...),
		NewReLU(),
	)
	b3 := NewSequential(
		NewConv2D(ConvConfig{InC: cfg.InC, OutC: cfg.Reduce3x3, Kernel: 1}, opts...),
		NewReLU(),
		NewConv2D(ConvConfig{InC: cfg.Reduce3x3, OutC: cfg.Out3x3, Kernel: 3, Pad: 1}, opts...),
		NewReLU(),
	)
	b5 := NewSequential(
		NewConv2D(ConvConfig{InC: cfg.InC, OutC: cfg.Reduce5x5, Kernel: 1}, opts...),
		NewReLU(),
		NewConv2D(ConvConfig{InC: cfg.Reduce5x5, OutC: cfg.Out5x5, Kernel: 5, Pad: 2}, opts...),
		NewReLU(),
	)
	// Pool branch: 3×3 max pool (stride 1, same padding is not supported by
	// MaxPool2D, so use a stride-1 3×3 conv standing in for pool+project,
	// which preserves the "mix then 1×1 project" role).
	bp := NewSequential(
		NewConv2D(ConvConfig{InC: cfg.InC, OutC: cfg.OutPool, Kernel: 3, Pad: 1}, opts...),
		NewReLU(),
	)
	return &InceptionBlock{
		branches:  []*Sequential{b1, b3, b5, bp},
		outPerArm: []int{cfg.Out1x1, cfg.Out3x3, cfg.Out5x5, cfg.OutPool},
	}, nil
}

// Forward runs all branches on x and concatenates their channels.
func (ib *InceptionBlock) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("%w: inception input %v", ErrBadInput, x.Shape())
	}
	ib.lastInput = x
	parts := make([]*tensor.Tensor, len(ib.branches))
	for i, br := range ib.branches {
		y, err := br.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("inception branch %d: %w", i, err)
		}
		parts[i] = y
	}
	return concatChannels(parts)
}

// Backward splits the gradient per branch, backpropagates each, and sums
// the input gradients.
func (ib *InceptionBlock) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ib.lastInput == nil {
		return nil, ErrNotBuilt
	}
	parts, err := splitChannels(grad, ib.outPerArm)
	if err != nil {
		return nil, err
	}
	var total *tensor.Tensor
	for i, br := range ib.branches {
		dx, err := br.Backward(parts[i])
		if err != nil {
			return nil, fmt.Errorf("inception branch %d back: %w", i, err)
		}
		if total == nil {
			total = dx
		} else if err := total.AddInPlace(dx); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// Params returns all branch parameters.
func (ib *InceptionBlock) Params() []*Param {
	var ps []*Param
	for _, br := range ib.branches {
		ps = append(ps, br.Params()...)
	}
	return ps
}
