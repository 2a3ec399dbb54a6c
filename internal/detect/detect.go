// Package detect implements a YOLO-style single-shot grid detector with the
// paper's two-model early-exit split (Fig. 5): a shared convolutional stem
// feeds both a small "tiny" head (run on the local device) and a deeper
// "full" tail (run on the analysis server). Predictions whose classification
// score clears a threshold exit locally; otherwise the stem's feature map —
// not the raw frame — is shipped upstream and re-scored by the full model.
//
// The detector predicts, per grid cell: an objectness logit, a bounding box
// (center offsets within the cell plus width/height relative to the image),
// and per-class logits. Inference applies sigmoid/softmax decoding and
// greedy non-maximum suppression.
package detect

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Sentinel errors.
var (
	ErrBadConfig = errors.New("detect: invalid configuration")
	ErrBadInput  = errors.New("detect: bad input shape")
)

// Box is a normalized bounding box (coordinates in [0,1], center format).
type Box struct {
	CX, CY, W, H float64
}

// IoU computes intersection-over-union of two boxes.
func IoU(a, b Box) float64 {
	ax1, ay1 := a.CX-a.W/2, a.CY-a.H/2
	ax2, ay2 := a.CX+a.W/2, a.CY+a.H/2
	bx1, by1 := b.CX-b.W/2, b.CY-b.H/2
	bx2, by2 := b.CX+b.W/2, b.CY+b.H/2
	ix := math.Max(0, math.Min(ax2, bx2)-math.Max(ax1, bx1))
	iy := math.Max(0, math.Min(ay2, by2)-math.Max(ay1, by1))
	inter := ix * iy
	union := a.W*a.H + b.W*b.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Detection is one decoded prediction.
type Detection struct {
	Box   Box
	Class int
	Score float64 // objectness × class probability
}

// GroundTruth labels one object in an image.
type GroundTruth struct {
	Box   Box
	Class int
}

// Config sizes a detector.
type Config struct {
	InC     int // image channels
	Size    int // square image side
	Grid    int // S: the image is divided into S×S cells
	Classes int
	// StemChannels is the width of the shared stem's output feature map.
	StemChannels int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.InC <= 0 || c.Size <= 0 || c.Grid <= 0 || c.Classes <= 0 || c.StemChannels <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadConfig, c)
	}
	if c.Size%c.Grid != 0 {
		return fmt.Errorf("%w: size %d not divisible by grid %d", ErrBadConfig, c.Size, c.Grid)
	}
	return nil
}

// channelsPerCell returns 5+K: objectness, 4 box params, class logits.
func (c Config) channelsPerCell() int { return 5 + c.Classes }

// Detector is the early-exit detector pair.
type Detector struct {
	cfg  Config
	stem *nn.Sequential // image → feature map [N, StemChannels, S*2, S*2]
	tiny *nn.Sequential // feature map → grid output (shallow)
	full *nn.Sequential // feature map → grid output (deep)
}

// New builds a detector pair. The stem downsamples the image to twice the
// grid resolution; heads downsample the rest of the way.
func New(cfg Config, rng *rand.Rand) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt := nn.WithRand(rng)
	out := cfg.channelsPerCell()

	// Stem: size → size/2 → size/(size/(2*grid)) ... keep it simple: two
	// stride-2 convs bring size down by 4; require size == 4*grid so the
	// stem output is exactly 2×2 per cell... Instead: stem downsamples by
	// size/(2*grid) via pooling, heads finish with stride-2.
	factor := cfg.Size / (2 * cfg.Grid)
	if factor < 1 || cfg.Size%(2*cfg.Grid) != 0 {
		return nil, fmt.Errorf("%w: size %d must be a multiple of 2*grid", ErrBadConfig, cfg.Size)
	}
	stem := nn.NewSequential(
		nn.NewConv2D(nn.ConvConfig{InC: cfg.InC, OutC: cfg.StemChannels, Kernel: 3, Stride: 1, Pad: 1}, opt),
		nn.NewLeakyReLU(0.1),
	)
	if factor > 1 {
		stem.Add(nn.NewMaxPool2D(factor, factor))
	}
	stem.Add(nn.NewConv2D(nn.ConvConfig{InC: cfg.StemChannels, OutC: cfg.StemChannels, Kernel: 3, Stride: 1, Pad: 1}, opt))
	stem.Add(nn.NewLeakyReLU(0.1))

	tiny := nn.NewSequential(
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(nn.ConvConfig{InC: cfg.StemChannels, OutC: out, Kernel: 1, Stride: 1, Pad: 0}, opt),
	)
	full := nn.NewSequential(
		nn.NewConv2D(nn.ConvConfig{InC: cfg.StemChannels, OutC: cfg.StemChannels * 2, Kernel: 3, Stride: 1, Pad: 1}, opt),
		nn.NewLeakyReLU(0.1),
		nn.NewConv2D(nn.ConvConfig{InC: cfg.StemChannels * 2, OutC: cfg.StemChannels * 2, Kernel: 3, Stride: 1, Pad: 1}, opt),
		nn.NewLeakyReLU(0.1),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(nn.ConvConfig{InC: cfg.StemChannels * 2, OutC: out, Kernel: 1, Stride: 1, Pad: 0}, opt),
	)
	return &Detector{cfg: cfg, stem: stem, tiny: tiny, full: full}, nil
}

// Params returns all trainable parameters.
func (d *Detector) Params() []*nn.Param {
	ps := append(d.stem.Params(), d.tiny.Params()...)
	return append(ps, d.full.Params()...)
}

// TinyParams returns stem+tiny parameters (the "local model" size).
func (d *Detector) TinyParams() int {
	return nn.NumParams(d.stem.Params()) + nn.NumParams(d.tiny.Params())
}

// FullParams returns stem+full parameters (the "server model" size).
func (d *Detector) FullParams() int {
	return nn.NumParams(d.stem.Params()) + nn.NumParams(d.full.Params())
}

// lossOnOutput computes the YOLO-style loss and its gradient for a head
// output [N, 5+K, S, S] against ground truth (at most one object per cell).
func (d *Detector) lossOnOutput(out *tensor.Tensor, truths [][]GroundTruth) (float64, *tensor.Tensor, error) {
	s := d.cfg.Grid
	k := d.cfg.Classes
	ch := d.cfg.channelsPerCell()
	n := out.Dim(0)
	if out.Dims() != 4 || out.Dim(1) != ch || out.Dim(2) != s || out.Dim(3) != s {
		return 0, nil, fmt.Errorf("%w: head output %v, want [N,%d,%d,%d]", ErrBadInput, out.Shape(), ch, s, s)
	}
	if len(truths) != n {
		return 0, nil, fmt.Errorf("%w: %d truth lists for %d images", ErrBadInput, len(truths), n)
	}
	grad := tensor.New(out.Shape()...)
	const (
		lambdaCoord = 5.0
		lambdaNoObj = 0.5
	)
	total := 0.0
	cells := float64(n * s * s)
	at := func(img, c, y, x int) float64 { return out.At(img, c, y, x) }
	addG := func(img, c, y, x int, v float64) { grad.Set(grad.At(img, c, y, x)+v, img, c, y, x) }

	for img := 0; img < n; img++ {
		// Map truths to responsible cells.
		occupied := make(map[[2]int]GroundTruth)
		for _, gt := range truths[img] {
			cx := int(gt.Box.CX * float64(s))
			cy := int(gt.Box.CY * float64(s))
			if cx < 0 {
				cx = 0
			}
			if cx >= s {
				cx = s - 1
			}
			if cy < 0 {
				cy = 0
			}
			if cy >= s {
				cy = s - 1
			}
			occupied[[2]int{cy, cx}] = gt
		}
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				objLogit := at(img, 0, y, x)
				objP := 1 / (1 + math.Exp(-objLogit))
				gt, has := occupied[[2]int{y, x}]
				if !has {
					// No-object BCE.
					total += lambdaNoObj * (-math.Log(math.Max(1e-12, 1-objP))) / cells
					addG(img, 0, y, x, lambdaNoObj*objP/cells)
					continue
				}
				// Objectness BCE toward 1.
				total += -math.Log(math.Max(1e-12, objP)) / cells
				addG(img, 0, y, x, (objP-1)/cells)
				// Box: tx, ty are sigmoid offsets within the cell; tw, th are
				// sigmoid fractions of image size.
				wantTx := gt.Box.CX*float64(s) - float64(x)
				wantTy := gt.Box.CY*float64(s) - float64(y)
				targets := [4]float64{wantTx, wantTy, gt.Box.W, gt.Box.H}
				for bi := 0; bi < 4; bi++ {
					logit := at(img, 1+bi, y, x)
					p := 1 / (1 + math.Exp(-logit))
					diff := p - targets[bi]
					total += lambdaCoord * 0.5 * diff * diff / cells
					addG(img, 1+bi, y, x, lambdaCoord*diff*p*(1-p)/cells)
				}
				// Class cross-entropy over softmax of class logits.
				logits := make([]float64, k)
				maxL := math.Inf(-1)
				for c := 0; c < k; c++ {
					logits[c] = at(img, 5+c, y, x)
					if logits[c] > maxL {
						maxL = logits[c]
					}
				}
				sum := 0.0
				for c := range logits {
					sum += math.Exp(logits[c] - maxL)
				}
				for c := 0; c < k; c++ {
					p := math.Exp(logits[c]-maxL) / sum
					target := 0.0
					if c == gt.Class {
						target = 1
						total += -math.Log(math.Max(1e-12, p)) / cells
					}
					addG(img, 5+c, y, x, (p-target)/cells)
				}
			}
		}
	}
	return total, grad, nil
}

// TrainStep runs one joint training step over a batch of images [N,C,H,W]
// with per-image ground truths, accumulating gradients for both heads
// through the shared stem. It returns the tiny and full losses.
func (d *Detector) TrainStep(images *tensor.Tensor, truths [][]GroundTruth) (tinyLoss, fullLoss float64, err error) {
	feat, err := d.stem.Forward(images, true)
	if err != nil {
		return 0, 0, fmt.Errorf("stem: %w", err)
	}
	outT, err := d.tiny.Forward(feat, true)
	if err != nil {
		return 0, 0, fmt.Errorf("tiny head: %w", err)
	}
	outF, err := d.full.Forward(feat, true)
	if err != nil {
		return 0, 0, fmt.Errorf("full head: %w", err)
	}
	tinyLoss, gT, err := d.lossOnOutput(outT, truths)
	if err != nil {
		return 0, 0, err
	}
	fullLoss, gF, err := d.lossOnOutput(outF, truths)
	if err != nil {
		return 0, 0, err
	}
	dT, err := d.tiny.Backward(gT)
	if err != nil {
		return 0, 0, fmt.Errorf("tiny back: %w", err)
	}
	dF, err := d.full.Backward(gF)
	if err != nil {
		return 0, 0, fmt.Errorf("full back: %w", err)
	}
	if err := dT.AddInPlace(dF); err != nil {
		return 0, 0, err
	}
	if _, err := d.stem.Backward(dT); err != nil {
		return 0, 0, fmt.Errorf("stem back: %w", err)
	}
	return tinyLoss, fullLoss, nil
}

// TrainEpoch runs one epoch of joint training over images [N,C,H,W] and
// their ground truths: one rng.Perm orders the images, each full batch takes
// one TrainStep and one optimizer step, and a short remainder is dropped.
func (d *Detector) TrainEpoch(images *tensor.Tensor, truths [][]GroundTruth, batch int, opt nn.Optimizer, rng *rand.Rand) error {
	n := images.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	perm := rng.Perm(n)
	for start := 0; start+batch <= n; start += batch {
		idx := perm[start : start+batch]
		imgs, err := nn.GatherRows(images, idx)
		if err != nil {
			return err
		}
		bt := make([][]GroundTruth, len(idx))
		for i, j := range idx {
			bt[i] = truths[j]
		}
		if _, _, err := d.TrainStep(imgs, bt); err != nil {
			return err
		}
		opt.Step(d.Params())
	}
	return nil
}

// decode converts one image's head output to detections above scoreFloor,
// before NMS.
func (d *Detector) decode(out *tensor.Tensor, img int, scoreFloor float64) []Detection {
	s := d.cfg.Grid
	k := d.cfg.Classes
	var dets []Detection
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			obj := 1 / (1 + math.Exp(-out.At(img, 0, y, x)))
			tx := 1 / (1 + math.Exp(-out.At(img, 1, y, x)))
			ty := 1 / (1 + math.Exp(-out.At(img, 2, y, x)))
			tw := 1 / (1 + math.Exp(-out.At(img, 3, y, x)))
			th := 1 / (1 + math.Exp(-out.At(img, 4, y, x)))
			maxL := math.Inf(-1)
			for c := 0; c < k; c++ {
				if l := out.At(img, 5+c, y, x); l > maxL {
					maxL = l
				}
			}
			sum := 0.0
			for c := 0; c < k; c++ {
				sum += math.Exp(out.At(img, 5+c, y, x) - maxL)
			}
			bestC, bestP := 0, 0.0
			for c := 0; c < k; c++ {
				p := math.Exp(out.At(img, 5+c, y, x)-maxL) / sum
				if p > bestP {
					bestC, bestP = c, p
				}
			}
			score := obj * bestP
			if score < scoreFloor {
				continue
			}
			dets = append(dets, Detection{
				Box: Box{
					CX: (float64(x) + tx) / float64(s),
					CY: (float64(y) + ty) / float64(s),
					W:  tw,
					H:  th,
				},
				Class: bestC,
				Score: score,
			})
		}
	}
	return dets
}

// NMS applies greedy non-maximum suppression at the given IoU threshold.
func NMS(dets []Detection, iouThreshold float64) []Detection {
	sorted := append([]Detection(nil), dets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	var kept []Detection
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if d.Class == k.Class && IoU(d.Box, k.Box) > iouThreshold {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}

// LocalResult is the tiny model's output plus the feature map a miss would
// ship upstream.
type LocalResult struct {
	Detections []Detection
	Feature    *tensor.Tensor
	// FeatureBytes is what shipping the feature map costs (8 bytes/elem).
	FeatureBytes int
	// TopScore is the best detection score (0 when nothing detected).
	TopScore float64
}

// DetectLocal runs the stem and tiny head on a batch, returning per-image
// results.
func (d *Detector) DetectLocal(images *tensor.Tensor, scoreFloor float64) ([]LocalResult, error) {
	feat, err := d.stem.Forward(images, false)
	if err != nil {
		return nil, fmt.Errorf("stem: %w", err)
	}
	out, err := d.tiny.Forward(feat, false)
	if err != nil {
		return nil, fmt.Errorf("tiny head: %w", err)
	}
	n := images.Dim(0)
	perImg := feat.Size() / n
	results := make([]LocalResult, n)
	for i := 0; i < n; i++ {
		dets := NMS(d.decode(out, i, scoreFloor), 0.45)
		top := 0.0
		for _, dt := range dets {
			if dt.Score > top {
				top = dt.Score
			}
		}
		sub, err := nn.GatherRows(feat, []int{i})
		if err != nil {
			return nil, err
		}
		results[i] = LocalResult{Detections: dets, Feature: sub, FeatureBytes: perImg * 8, TopScore: top}
	}
	return results, nil
}

// DetectServer re-scores a shipped feature map with the full tail.
func (d *Detector) DetectServer(feature *tensor.Tensor, scoreFloor float64) ([]Detection, error) {
	out, err := d.full.Forward(feature, false)
	if err != nil {
		return nil, fmt.Errorf("full head: %w", err)
	}
	return NMS(d.decode(out, 0, scoreFloor), 0.45), nil
}

// EvalResult summarizes detector accuracy on a labeled set.
type EvalResult struct {
	ClassAccuracy float64 // top detection has the right class
	MeanIoU       float64 // IoU of top detection vs truth
}

// Head selects which model to evaluate.
type Head int

// Heads for Evaluate.
const (
	// TinyHead evaluates the local model.
	TinyHead Head = iota + 1
	// FullHead evaluates the server model.
	FullHead
)

// Evaluate measures single-object detection quality of one head.
func (d *Detector) Evaluate(images *tensor.Tensor, truths [][]GroundTruth, h Head) (EvalResult, error) {
	feat, err := d.stem.Forward(images, false)
	if err != nil {
		return EvalResult{}, err
	}
	var out *tensor.Tensor
	switch h {
	case TinyHead:
		out, err = d.tiny.Forward(feat, false)
	case FullHead:
		out, err = d.full.Forward(feat, false)
	default:
		return EvalResult{}, fmt.Errorf("%w: head %d", ErrBadConfig, h)
	}
	if err != nil {
		return EvalResult{}, err
	}
	n := images.Dim(0)
	var res EvalResult
	for i := 0; i < n; i++ {
		dets := NMS(d.decode(out, i, 0.0), 0.45)
		if len(dets) == 0 || len(truths[i]) == 0 {
			continue
		}
		top := dets[0]
		for _, dt := range dets[1:] {
			if dt.Score > top.Score {
				top = dt
			}
		}
		gt := truths[i][0]
		if top.Class == gt.Class {
			res.ClassAccuracy++
		}
		res.MeanIoU += IoU(top.Box, gt.Box)
	}
	if n > 0 {
		res.ClassAccuracy /= float64(n)
		res.MeanIoU /= float64(n)
	}
	return res, nil
}
