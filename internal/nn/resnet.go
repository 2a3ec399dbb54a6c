package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ShortcutKind selects the residual-block shortcut path. The paper's Fig. 8
// explicitly uses a convolutional layer on the shortcut path "instead of
// [the] max pooling layer mostly used in Resnet block architecture", so all
// three variants are implemented to support the E8 ablation.
type ShortcutKind int

const (
	// ShortcutConv uses a 1×1 convolution (the paper's variant, Fig. 8).
	ShortcutConv ShortcutKind = iota + 1
	// ShortcutIdentity passes the input through unchanged; it requires
	// matching channel counts and stride 1.
	ShortcutIdentity
	// ShortcutPool max-pools to match spatial size and zero-pads channels,
	// the parameter-free alternative the paper contrasts with.
	ShortcutPool
)

// String names the shortcut kind for reports.
func (k ShortcutKind) String() string {
	switch k {
	case ShortcutConv:
		return "conv"
	case ShortcutIdentity:
		return "identity"
	case ShortcutPool:
		return "maxpool"
	default:
		return "unknown"
	}
}

// ResidualBlock is the paper's ResNet block (Fig. 8): a main path of two 3×3
// convolutions with batch normalization and ReLU, summed with a configurable
// shortcut path, followed by a final ReLU.
type ResidualBlock struct {
	kind ShortcutKind
	out  int

	conv1 *Conv2D
	bn1   *BatchNorm
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm

	shortConv *Conv2D    // ShortcutConv only
	shortPool *MaxPool2D // ShortcutPool only

	reluOut *ReLU

	lastInShape []int
	lastPadC    int // channels zero-padded on the pool shortcut
}

var _ Layer = (*ResidualBlock)(nil)

// ResidualConfig describes a ResidualBlock.
type ResidualConfig struct {
	InC, OutC int
	Stride    int
	Shortcut  ShortcutKind
}

// NewResidualBlock constructs a residual block. It returns an error when an
// identity shortcut is requested with incompatible geometry.
func NewResidualBlock(cfg ResidualConfig, opts ...Option) (*ResidualBlock, error) {
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if cfg.Shortcut == 0 {
		cfg.Shortcut = ShortcutConv
	}
	if cfg.Shortcut == ShortcutIdentity && (cfg.InC != cfg.OutC || cfg.Stride != 1) {
		return nil, fmt.Errorf("%w: identity shortcut needs inC==outC and stride 1, got %d→%d stride %d",
			ErrBadInput, cfg.InC, cfg.OutC, cfg.Stride)
	}
	b := &ResidualBlock{
		kind: cfg.Shortcut, out: cfg.OutC,
		conv1:   NewConv2D(ConvConfig{InC: cfg.InC, OutC: cfg.OutC, Kernel: 3, Stride: cfg.Stride, Pad: 1}, opts...),
		bn1:     NewBatchNorm(cfg.OutC),
		relu1:   NewReLU(),
		conv2:   NewConv2D(ConvConfig{InC: cfg.OutC, OutC: cfg.OutC, Kernel: 3, Stride: 1, Pad: 1}, opts...),
		bn2:     NewBatchNorm(cfg.OutC),
		reluOut: NewReLU(),
	}
	switch cfg.Shortcut {
	case ShortcutConv:
		b.shortConv = NewConv2D(ConvConfig{InC: cfg.InC, OutC: cfg.OutC, Kernel: 1, Stride: cfg.Stride, Pad: 0}, opts...)
	case ShortcutPool:
		if cfg.Stride > 1 {
			b.shortPool = NewMaxPool2D(cfg.Stride, cfg.Stride)
		}
	}
	return b, nil
}

// Forward computes ReLU(main(x) + shortcut(x)).
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	b.lastInShape = x.Shape()
	y, err := b.conv1.Forward(x, train)
	if err != nil {
		return nil, fmt.Errorf("resblock conv1: %w", err)
	}
	if y, err = b.bn1.Forward(y, train); err != nil {
		return nil, fmt.Errorf("resblock bn1: %w", err)
	}
	if y, err = b.relu1.Forward(y, train); err != nil {
		return nil, err
	}
	if y, err = b.conv2.Forward(y, train); err != nil {
		return nil, fmt.Errorf("resblock conv2: %w", err)
	}
	if y, err = b.bn2.Forward(y, train); err != nil {
		return nil, fmt.Errorf("resblock bn2: %w", err)
	}

	short, err := b.shortcut(x, train)
	if err != nil {
		return nil, err
	}
	if !y.SameShape(short) {
		return nil, fmt.Errorf("%w: resblock main %v vs shortcut %v", ErrBadInput, y.Shape(), short.Shape())
	}
	if err := y.AddInPlace(short); err != nil {
		return nil, err
	}
	return b.reluOut.Forward(y, train)
}

func (b *ResidualBlock) shortcut(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	switch b.kind {
	case ShortcutConv:
		return b.shortConv.Forward(x, train)
	case ShortcutIdentity:
		return x, nil
	case ShortcutPool:
		s := x
		var err error
		if b.shortPool != nil {
			if s, err = b.shortPool.Forward(x, train); err != nil {
				return nil, fmt.Errorf("resblock shortcut pool: %w", err)
			}
		}
		b.lastPadC = b.out - s.Dim(1)
		if b.lastPadC < 0 {
			return nil, fmt.Errorf("%w: pool shortcut cannot shrink channels %d→%d", ErrBadInput, s.Dim(1), b.out)
		}
		if b.lastPadC == 0 {
			return s, nil
		}
		n, c, h, w := s.Dim(0), s.Dim(1), s.Dim(2), s.Dim(3)
		padded := tensor.New(n, b.out, h, w)
		for i := 0; i < n; i++ {
			copy(padded.Data()[i*b.out*h*w:i*b.out*h*w+c*h*w], s.Data()[i*c*h*w:(i+1)*c*h*w])
		}
		return padded, nil
	default:
		return nil, fmt.Errorf("%w: shortcut kind %d", ErrBadInput, b.kind)
	}
}

// Backward propagates through both paths and sums the input gradients.
func (b *ResidualBlock) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if b.lastInShape == nil {
		return nil, ErrNotBuilt
	}
	g, err := b.reluOut.Backward(grad)
	if err != nil {
		return nil, err
	}
	// Main path.
	m, err := b.bn2.Backward(g)
	if err != nil {
		return nil, fmt.Errorf("resblock bn2 back: %w", err)
	}
	if m, err = b.conv2.Backward(m); err != nil {
		return nil, fmt.Errorf("resblock conv2 back: %w", err)
	}
	if m, err = b.relu1.Backward(m); err != nil {
		return nil, err
	}
	if m, err = b.bn1.Backward(m); err != nil {
		return nil, fmt.Errorf("resblock bn1 back: %w", err)
	}
	if m, err = b.conv1.Backward(m); err != nil {
		return nil, fmt.Errorf("resblock conv1 back: %w", err)
	}
	// Shortcut path.
	var s *tensor.Tensor
	switch b.kind {
	case ShortcutConv:
		if s, err = b.shortConv.Backward(g); err != nil {
			return nil, fmt.Errorf("resblock shortcut back: %w", err)
		}
	case ShortcutIdentity:
		s = g
	case ShortcutPool:
		s = g
		if b.lastPadC > 0 {
			n, h, w := g.Dim(0), g.Dim(2), g.Dim(3)
			c := b.out - b.lastPadC
			trimmed := tensor.New(n, c, h, w)
			for i := 0; i < n; i++ {
				copy(trimmed.Data()[i*c*h*w:(i+1)*c*h*w], g.Data()[i*b.out*h*w:i*b.out*h*w+c*h*w])
			}
			s = trimmed
		}
		if b.shortPool != nil {
			if s, err = b.shortPool.Backward(s); err != nil {
				return nil, fmt.Errorf("resblock shortcut pool back: %w", err)
			}
		}
	}
	if err := m.AddInPlace(s); err != nil {
		return nil, fmt.Errorf("resblock grad sum: %w", err)
	}
	return m, nil
}

// Params returns all trainable parameters across both paths.
func (b *ResidualBlock) Params() []*Param {
	ps := append(b.conv1.Params(), b.bn1.Params()...)
	ps = append(ps, b.conv2.Params()...)
	ps = append(ps, b.bn2.Params()...)
	if b.shortConv != nil {
		ps = append(ps, b.shortConv.Params()...)
	}
	return ps
}
