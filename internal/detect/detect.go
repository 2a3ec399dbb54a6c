// Package detect implements a YOLO-style single-shot grid detector with the
// paper's early-exit split (Fig. 5), built as one nn.BranchNet: a shared
// convolutional stem feeds both a small "tiny" head (run on the local
// device) and a deeper "full" tail (run on the analysis server). Detect makes
// the exit-or-offload decision: frames whose top classification score clears
// the nn.ExitPolicy exit locally, and the stem's feature maps of the rest —
// not the raw frames — are shipped upstream and re-scored by the full tail.
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

// Detector is the early-exit detector: one nn.BranchNet whose stem and tiny
// head run on the local device and whose full tail runs on the server.
type Detector struct {
	cfg Config
	net *nn.BranchNet
}

// New builds a detector. The stem downsamples the image to twice the grid
// resolution; both heads downsample the rest of the way.
func New(cfg Config, rng *rand.Rand) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt := nn.WithRand(rng)
	out := cfg.channelsPerCell()

	// The stem pools the image by size/(2*grid), so its feature map is
	// twice the grid resolution; each head finishes with a stride-2 pool.
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
	net := nn.NewBranchNet(stem, tiny, full)
	net.Exit1Weight = 1 // both heads answer on their own; neither loss is discounted
	return &Detector{cfg: cfg, net: net}, nil
}

// TinyParams returns stem+tiny parameters (the "local model" size).
func (d *Detector) TinyParams() int {
	return nn.NumParams(d.net.Stem.Params()) + nn.NumParams(d.net.Exit1.Params())
}

// FullParams returns stem+full parameters (the "server model" size).
func (d *Detector) FullParams() int {
	return nn.NumParams(d.net.Stem.Params()) + nn.NumParams(d.net.Tail.Params())
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

// TrainEpoch runs one epoch of joint training over images [N,C,H,W] and
// their ground truths, both heads scored by the YOLO-style loss, and returns
// the mean tiny and full losses (see nn.BranchNet.TrainEpoch).
func (d *Detector) TrainEpoch(images *tensor.Tensor, truths [][]GroundTruth, batch int, opt nn.Optimizer, rng *rand.Rand) (tinyLoss, fullLoss float64, err error) {
	if n := images.Dim(0); len(truths) != n {
		return 0, 0, fmt.Errorf("%w: %d truth lists for %d images", ErrBadInput, len(truths), n)
	}
	return d.net.TrainEpoch(images, batch, opt, rng, func(idx []int) nn.HeadLoss {
		bt := make([][]GroundTruth, len(idx))
		for i, j := range idx {
			bt[i] = truths[j]
		}
		return func(out *tensor.Tensor) (float64, *tensor.Tensor, error) {
			return d.lossOnOutput(out, bt)
		}
	})
}

// scoreFloor is the score below which a decoded cell is no detection.
const scoreFloor = 0.05

// decode converts one image's head output to detections at or above
// scoreFloor, before NMS.
func (d *Detector) decode(out *tensor.Tensor, img int) []Detection {
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

// FrameResult is the Fig. 5 gate's answer for one frame.
type FrameResult struct {
	Detections  []Detection
	ExitedLocal bool
	// FeatureBytes is the size of the feature map shipped upstream: 8 bytes
	// per element, 0 on a local exit.
	FeatureBytes int
}

// Detect runs a batch of frames through the Fig. 5 gate. The stem and tiny
// head score every frame; a frame whose best tiny-head score (0 when it
// detects nothing) the policy lets exit keeps the tiny head's detections,
// and the feature maps of the rest are re-scored by the full tail in one
// pass. Detections below scoreFloor are dropped before non-maximum
// suppression.
func (d *Detector) Detect(images *tensor.Tensor, policy nn.ExitPolicy) ([]FrameResult, error) {
	feature, out, err := d.net.LocalForward(images)
	if err != nil {
		return nil, err
	}
	n := images.Dim(0)
	results := make([]FrameResult, n)
	var missIdx []int
	for i := range results {
		dets := NMS(d.decode(out, i), 0.45)
		top := 0.0
		if len(dets) > 0 {
			top = dets[0].Score
		}
		if policy.Exits(top) {
			results[i] = FrameResult{Detections: dets, ExitedLocal: true}
		} else {
			results[i] = FrameResult{FeatureBytes: feature.Size() / n * 8}
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		return results, nil
	}
	sub, err := nn.GatherRows(feature, missIdx)
	if err != nil {
		return nil, err
	}
	serverOut, err := d.net.ServerForward(sub)
	if err != nil {
		return nil, err
	}
	for mi, i := range missIdx {
		results[i].Detections = NMS(d.decode(serverOut, mi), 0.45)
	}
	return results, nil
}

// EvalResult summarizes detector quality on a labeled set under an exit
// policy.
type EvalResult struct {
	ClassAccuracy float64 // top detection has the right class
	MeanIoU       float64 // IoU of top detection vs truth
	ExitRate      float64 // fraction of frames answered by the tiny head
	UpstreamBytes int     // feature bytes shipped to the server
}

// Evaluate measures single-object detection quality of the Fig. 5 gate:
// each frame's top detection, from whichever head answered it, against its
// first ground truth. A policy at -Inf scores the tiny head alone and one at
// +Inf the full tail alone.
func (d *Detector) Evaluate(images *tensor.Tensor, truths [][]GroundTruth, policy nn.ExitPolicy) (EvalResult, error) {
	n := images.Dim(0)
	if len(truths) != n {
		return EvalResult{}, fmt.Errorf("%w: %d truth lists for %d images", ErrBadInput, len(truths), n)
	}
	results, err := d.Detect(images, policy)
	if err != nil {
		return EvalResult{}, err
	}
	var res EvalResult
	exits := 0
	for i, fr := range results {
		if fr.ExitedLocal {
			exits++
		}
		res.UpstreamBytes += fr.FeatureBytes
		if len(fr.Detections) == 0 || len(truths[i]) == 0 {
			continue
		}
		top, gt := fr.Detections[0], truths[i][0]
		if top.Class == gt.Class {
			res.ClassAccuracy++
		}
		res.MeanIoU += IoU(top.Box, gt.Box)
	}
	if n > 0 {
		res.ClassAccuracy /= float64(n)
		res.MeanIoU /= float64(n)
		res.ExitRate = float64(exits) / float64(n)
	}
	return res, nil
}
