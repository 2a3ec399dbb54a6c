// Package action assembles the paper's suspicious-behavior / crime-action
// recognition architecture (Fig. 7): a CNN module built from ResNet blocks
// (Fig. 8, with the paper's convolutional-shortcut variant) processes each
// frame, LSTM layers extract temporal patterns across the per-frame
// representations, and fully connected classifiers produce decisions at two
// exits. Exit 1 (ResNet block 1 + LSTM 1 + FC 1) runs on the local device;
// when its entropy score fails the confidence threshold, the block-1 feature
// sequence is shipped to the analysis server, which runs the remaining
// blocks, LSTM 2, and FC 2 for Output 2.
package action

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

// ErrBadConfig reports invalid recognizer parameters.
var ErrBadConfig = errors.New("action: invalid configuration")

// Config sizes the recognizer.
type Config struct {
	FrameSize int
	Frames    int
	Classes   int
	// Channels is the width of ResNet block 1's output.
	Channels int
	// Hidden is the LSTM width.
	Hidden int
	// Shortcut selects the ResNet block shortcut variant (Fig. 8 ablation).
	Shortcut nn.ShortcutKind
}

// Recognizer is the early-exit CNN+LSTM action classifier.
type Recognizer struct {
	cfg     Config
	featDim int // per-frame feature width shipped on an exit-1 miss
	net     *nn.BranchNet
}

// New builds the recognizer.
func New(cfg Config, rng *rand.Rand) (*Recognizer, error) {
	if cfg.FrameSize < 8 || cfg.Frames < 2 || cfg.Classes < 2 || cfg.Channels < 1 || cfg.Hidden < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.Shortcut == 0 {
		cfg.Shortcut = nn.ShortcutConv
	}
	opt := nn.WithRand(rng)

	// ResNet block 1 per frame, followed by a 1×1 bottleneck that halves the
	// channel count before flattening: the resulting per-frame feature map
	// keeps spatial structure (so the LSTM can see motion) while costing
	// half the raw frame's bytes to ship upstream on an exit-1 miss.
	block1, err := nn.NewResidualBlock(nn.ResidualConfig{
		InC: 1, OutC: cfg.Channels, Stride: 2, Shortcut: cfg.Shortcut,
	}, opt)
	if err != nil {
		return nil, err
	}
	bottleneck := 2
	featDim := bottleneck * (cfg.FrameSize / 2) * (cfg.FrameSize / 2)
	stem := nn.NewSequential(
		nn.NewTimeDistributed(nn.NewSequential(
			block1,
			nn.NewConv2D(nn.ConvConfig{InC: cfg.Channels, OutC: bottleneck, Kernel: 1, Stride: 1, Pad: 0}, opt),
			nn.NewFlatten(),
		)),
	)
	// Exit path 1: LSTM 1 + FC 1 (local device).
	exit1 := nn.NewSequential(
		nn.NewLSTM(featDim, cfg.Hidden, opt),
		nn.NewLastStep(),
		nn.NewDense(cfg.Hidden, cfg.Classes, opt),
	)
	// Server path (Fig. 7's right column): the shipped per-frame features
	// are un-flattened back into spatial maps, ResNet block 2 continues the
	// CNN hierarchy, then LSTM 2 and FC 2 decide.
	half := cfg.FrameSize / 2
	block2, err := nn.NewResidualBlock(nn.ResidualConfig{
		InC: bottleneck, OutC: cfg.Channels, Stride: 2, Shortcut: cfg.Shortcut,
	}, opt)
	if err != nil {
		return nil, err
	}
	tailFeat := cfg.Channels * (half / 2) * (half / 2)
	tail := nn.NewSequential(
		nn.NewTimeDistributed(nn.NewSequential(
			nn.NewReshape(bottleneck, half, half),
			block2,
			nn.NewFlatten(),
		)),
		nn.NewLSTM(tailFeat, cfg.Hidden*2, opt),
		nn.NewLSTM(cfg.Hidden*2, cfg.Hidden, opt),
		nn.NewLastStep(),
		nn.NewDense(cfg.Hidden, cfg.Classes, opt),
	)
	return &Recognizer{cfg: cfg, featDim: featDim, net: nn.NewBranchNet(stem, exit1, tail)}, nil
}

// Net exposes the underlying branch network (for experiments that sweep the
// exit policy directly).
func (r *Recognizer) Net() *nn.BranchNet { return r.net }

// TrainEpoch runs one epoch of joint two-exit training over a clip set.
func (r *Recognizer) TrainEpoch(set *video.ClipSet, batch int, opt nn.Optimizer, rng *rand.Rand) (exit1Loss, tailLoss float64, err error) {
	n := set.Clips.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	perm := rng.Perm(n)
	batches := 0
	for start := 0; start+batch <= n; start += batch {
		idx := perm[start : start+batch]
		clips, err := nn.GatherRows(set.Clips, idx)
		if err != nil {
			return 0, 0, err
		}
		labels := make([]int, len(idx))
		for i, j := range idx {
			labels[i] = set.Labels[j]
		}
		l1, l2, err := r.net.TrainStep(clips, labels)
		if err != nil {
			return 0, 0, err
		}
		opt.Step(r.net.Params())
		exit1Loss += l1
		tailLoss += l2
		batches++
	}
	if batches > 0 {
		exit1Loss /= float64(batches)
		tailLoss /= float64(batches)
	}
	return exit1Loss, tailLoss, nil
}

// EvalResult summarizes accuracy under an exit policy.
type EvalResult struct {
	Accuracy      float64
	ExitRate      float64 // fraction answered at exit 1
	Exit1Accuracy float64 // accuracy restricted to exit-1 answers
	ServerBytes   int     // feature bytes shipped upstream
}

// Evaluate classifies a clip set under the given entropy-gated exit policy
// and reports accuracy, exit rate, and upstream bytes.
func (r *Recognizer) Evaluate(set *video.ClipSet, policy nn.ExitPolicy) (EvalResult, error) {
	results, err := r.net.Infer(set.Clips, policy)
	if err != nil {
		return EvalResult{}, err
	}
	var res EvalResult
	exit1Correct, exit1Total := 0, 0
	correct := 0
	for i, ir := range results {
		if ir.Class == set.Labels[i] {
			correct++
		}
		if ir.ExitedLocal {
			exit1Total++
			if ir.Class == set.Labels[i] {
				exit1Correct++
			}
		} else {
			res.ServerBytes += ir.FeatureBytes
		}
	}
	n := len(results)
	if n > 0 {
		res.Accuracy = float64(correct) / float64(n)
		res.ExitRate = float64(exit1Total) / float64(n)
	}
	if exit1Total > 0 {
		res.Exit1Accuracy = float64(exit1Correct) / float64(exit1Total)
	}
	return res, nil
}

// FeatureBytesPerClip returns the upstream cost of one clip's block-1
// feature sequence versus its raw size, quantifying Fig. 7's bandwidth
// saving.
func (r *Recognizer) FeatureBytesPerClip() (feature, raw int) {
	feature = r.cfg.Frames * r.featDim * 8
	raw = r.cfg.Frames * r.cfg.FrameSize * r.cfg.FrameSize * 8
	return feature, raw
}

// Predict classifies clips, returning hard labels using the full server
// path (threshold that never exits locally).
func (r *Recognizer) Predict(clips *tensor.Tensor) ([]int, error) {
	results, err := r.net.Infer(clips, nn.ExitPolicy{Threshold: 1e9})
	if err != nil {
		return nil, err
	}
	out := make([]int, len(results))
	for i, ir := range results {
		out[i] = ir.Class
	}
	return out, nil
}
