// Package nn implements a from-scratch neural-network stack: trainable
// layers (dense, convolutional, pooling, normalization, recurrent), losses,
// optimizers, and composite architectures (residual blocks with the paper's
// convolutional-shortcut variant, stacked LSTMs, and early-exit branch
// networks) used by the smart-city cyberinfrastructure's methodology modules
// (paper §III).
//
// Layers follow an explicit forward/backward protocol and cache their most
// recent forward inputs, so a single layer instance must not be shared
// between concurrent training loops. Every model trains through one epoch
// loop over a caller-supplied HeadLoss: TrainEpoch for a one-head network
// (SoftmaxCrossEntropy is the one label loss) and BranchNet.TrainEpoch for
// the joint two-head step. Data parallelism is provided at a higher level by
// ParallelTrainer, which replicates models per worker, runs each shard
// through the same one-head step and averages gradients, mirroring the
// paper's "model and data parallelism" requirement for the software layer.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Sentinel errors for callers that need to match failure modes.
var (
	// ErrNotBuilt is returned when Backward is called before Forward.
	ErrNotBuilt = errors.New("nn: backward before forward")
	// ErrBadInput is returned when an input tensor has the wrong shape.
	ErrBadInput = errors.New("nn: bad input shape")
)

// Param is a trainable parameter tensor paired with its gradient
// accumulator. Optimizers consume Grad and update Value.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward computes the output for a batch
// and caches whatever state Backward needs; Backward consumes the gradient
// of the loss with respect to the layer output and returns the gradient with
// respect to the layer input, accumulating parameter gradients as a side
// effect.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	Params() []*Param
}

// Sequential chains layers into a feed-forward network.
type Sequential struct {
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: append([]Layer(nil), layers...)}
}

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.layers = append(s.layers, l) }

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.layers) }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for i, l := range s.layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad, err = s.layers[i].Backward(grad)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return grad, nil
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar parameters in ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}

// ZeroGrads clears every gradient in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// CopyParams copies parameter values from src to dst (used to synchronize
// data-parallel replicas and DQN target networks). The two lists must have
// identical structure.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: %d vs %d params", ErrBadInput, len(dst), len(src))
	}
	for i := range dst {
		if err := dst[i].Value.CopyFrom(src[i].Value); err != nil {
			return fmt.Errorf("param %d (%s): %w", i, dst[i].Name, err)
		}
	}
	return nil
}

// heStd returns the He-initialization standard deviation for fan-in n.
func heStd(fanIn int) float64 {
	if fanIn <= 0 {
		return 0.1
	}
	return math.Sqrt(2.0 / float64(fanIn))
}

// Init options shared by layer constructors.
type initConfig struct {
	rng *rand.Rand
}

// Option configures layer construction.
type Option func(*initConfig)

// WithRand sets the random source used for weight initialization. Layers
// built without a source use a fixed-seed default so construction is always
// deterministic.
func WithRand(rng *rand.Rand) Option {
	return func(c *initConfig) { c.rng = rng }
}

func applyOptions(opts []Option) *initConfig {
	c := &initConfig{}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return c
}
