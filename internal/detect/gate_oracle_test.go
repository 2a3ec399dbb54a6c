package detect

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The oracles below are the detector's code from before it was one
// nn.BranchNet: its own joint step and epoch loop, the per-frame
// local-then-server gate, and the per-head Evaluate. The epoch loop keeps a
// short last batch, the rule of nn's one epoch loop. The test is internal
// (package detect) and builds inputs by hand, because vision imports detect.

func oracleTrainStep(d *Detector, images *tensor.Tensor, truths [][]GroundTruth) (tinyLoss, fullLoss float64, err error) {
	stem, tiny, full := d.net.Stem, d.net.Exit1, d.net.Tail
	feat, err := stem.Forward(images, true)
	if err != nil {
		return 0, 0, err
	}
	outT, err := tiny.Forward(feat, true)
	if err != nil {
		return 0, 0, err
	}
	outF, err := full.Forward(feat, true)
	if err != nil {
		return 0, 0, err
	}
	tinyLoss, gT, err := d.lossOnOutput(outT, truths)
	if err != nil {
		return 0, 0, err
	}
	fullLoss, gF, err := d.lossOnOutput(outF, truths)
	if err != nil {
		return 0, 0, err
	}
	dT, err := tiny.Backward(gT)
	if err != nil {
		return 0, 0, err
	}
	dF, err := full.Backward(gF)
	if err != nil {
		return 0, 0, err
	}
	if err := dT.AddInPlace(dF); err != nil {
		return 0, 0, err
	}
	if _, err := stem.Backward(dT); err != nil {
		return 0, 0, err
	}
	return tinyLoss, fullLoss, nil
}

func oracleTrainEpoch(d *Detector, images *tensor.Tensor, truths [][]GroundTruth, batch int, opt nn.Optimizer, rng *rand.Rand) (tinyLoss, fullLoss float64, err error) {
	n := images.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	perm := rng.Perm(n)
	batches := 0
	for start := 0; start < n; start += batch {
		idx := perm[start:min(start+batch, n)]
		imgs, err := nn.GatherRows(images, idx)
		if err != nil {
			return 0, 0, err
		}
		bt := make([][]GroundTruth, len(idx))
		for i, j := range idx {
			bt[i] = truths[j]
		}
		lt, lf, err := oracleTrainStep(d, imgs, bt)
		if err != nil {
			return 0, 0, err
		}
		opt.Step(d.net.Params())
		tinyLoss += lt
		fullLoss += lf
		batches++
	}
	return tinyLoss / float64(batches), fullLoss / float64(batches), nil
}

// oracleDetect runs the stem and tiny head on the batch, then gates each
// frame on its own and re-scores a miss by running the full tail on that
// frame's feature map alone.
func oracleDetect(d *Detector, images *tensor.Tensor, policy nn.ExitPolicy) ([]FrameResult, error) {
	feat, err := d.net.Stem.Forward(images, false)
	if err != nil {
		return nil, err
	}
	out, err := d.net.Exit1.Forward(feat, false)
	if err != nil {
		return nil, err
	}
	n := images.Dim(0)
	perImg := feat.Size() / n
	results := make([]FrameResult, n)
	for i := 0; i < n; i++ {
		dets := NMS(d.decode(out, i), 0.45)
		if policy.Exits(topScore(dets)) {
			results[i] = FrameResult{Detections: dets, ExitedLocal: true}
			continue
		}
		sub, err := nn.GatherRows(feat, []int{i})
		if err != nil {
			return nil, err
		}
		fullOut, err := d.net.Tail.Forward(sub, false)
		if err != nil {
			return nil, err
		}
		results[i] = FrameResult{Detections: NMS(d.decode(fullOut, 0), 0.45), FeatureBytes: perImg * 8}
	}
	return results, nil
}

// topScore is the best score among dets, 0 when there are none: what the
// gate reads of a frame's tiny-head detections.
func topScore(dets []Detection) float64 {
	top := 0.0
	for _, dt := range dets {
		if dt.Score > top {
			top = dt.Score
		}
	}
	return top
}

// oracleEvaluateHead scores one head on every frame, as Evaluate did when
// it took a head in place of a policy.
func oracleEvaluateHead(d *Detector, images *tensor.Tensor, truths [][]GroundTruth, head nn.Layer) (EvalResult, error) {
	feat, err := d.net.Stem.Forward(images, false)
	if err != nil {
		return EvalResult{}, err
	}
	out, err := head.Forward(feat, false)
	if err != nil {
		return EvalResult{}, err
	}
	n := images.Dim(0)
	var res EvalResult
	for i := 0; i < n; i++ {
		dets := NMS(d.decode(out, i), 0.45)
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
	res.ClassAccuracy /= float64(n)
	res.MeanIoU /= float64(n)
	return res, nil
}

// oracleEvaluateGate is E5's inline sweep loop over oracleDetect, with the
// mean IoU the head oracle computes.
func oracleEvaluateGate(d *Detector, images *tensor.Tensor, truths [][]GroundTruth, policy nn.ExitPolicy) (EvalResult, error) {
	frames, err := oracleDetect(d, images, policy)
	if err != nil {
		return EvalResult{}, err
	}
	var res EvalResult
	correct, exits := 0, 0
	for i, fr := range frames {
		if fr.ExitedLocal {
			exits++
		} else {
			res.UpstreamBytes += fr.FeatureBytes
		}
		if len(fr.Detections) > 0 && len(truths[i]) > 0 {
			if fr.Detections[0].Class == truths[i][0].Class {
				correct++
			}
			res.MeanIoU += IoU(fr.Detections[0].Box, truths[i][0].Box)
		}
	}
	n := len(frames)
	res.ExitRate = float64(exits) / float64(n)
	res.ClassAccuracy = float64(correct) / float64(n)
	res.MeanIoU /= float64(n)
	return res, nil
}

func oracleConfig() Config {
	return Config{InC: 3, Size: 12, Grid: 3, Classes: 4, StemChannels: 8}
}

// randomSet returns n random images and one hand-built truth per image.
func randomSet(cfg Config, n int, rng *rand.Rand) (*tensor.Tensor, [][]GroundTruth) {
	images := tensor.Randn(rng, 1, n, cfg.InC, cfg.Size, cfg.Size)
	truths := make([][]GroundTruth, n)
	for i := range truths {
		truths[i] = []GroundTruth{{
			Box:   Box{CX: 0.1 + 0.8*rng.Float64(), CY: 0.1 + 0.8*rng.Float64(), W: 0.1 + 0.3*rng.Float64(), H: 0.1 + 0.3*rng.Float64()},
			Class: rng.Intn(cfg.Classes),
		}}
	}
	return images, truths
}

func requireSameParams(t *testing.T, got, want []*nn.Param) {
	t.Helper()
	for i := range got {
		gd, wd := got[i].Value.Data(), want[i].Value.Data()
		for j := range gd {
			if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
				t.Fatalf("param %d element %d: %v, oracle %v", i, j, gd[j], wd[j])
			}
		}
	}
}

// trainedPair trains two detectors from one seed on one random set, one
// through TrainEpoch and one through the oracle loop, requiring the same
// losses and parameters bit for bit after every epoch.
func trainedPair(t *testing.T) (*Detector, *tensor.Tensor, [][]GroundTruth) {
	t.Helper()
	cfg := oracleConfig()
	images, truths := randomSet(cfg, 22, rand.New(rand.NewSource(40)))
	got, err := New(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	optGot, optWant := nn.NewAdam(0.005), nn.NewAdam(0.005)
	rngGot, rngWant := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for e := 0; e < 4; e++ {
		// Batches of 8 over 22 images: two full batches and a short one of 6.
		gt, gf, err := got.TrainEpoch(images, truths, 8, optGot, rngGot)
		if err != nil {
			t.Fatal(err)
		}
		wt, wf, err := oracleTrainEpoch(want, images, truths, 8, optWant, rngWant)
		if err != nil {
			t.Fatal(err)
		}
		if gt != wt || gf != wf {
			t.Fatalf("epoch %d: losses (%v, %v), oracle (%v, %v)", e, gt, gf, wt, wf)
		}
		requireSameParams(t, got.net.Params(), want.net.Params())
	}
	return got, images, truths
}

func TestTrainEpochMatchesOracle(t *testing.T) {
	trainedPair(t)
}

func TestDetectAndEvaluateMatchOracles(t *testing.T) {
	det, images, truths := trainedPair(t)
	local, err := det.Detect(images, nn.ExitPolicy{Threshold: math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	// One frame's own top score, read from its tiny-head detections at
	// -Inf: the median one, so some frames exit and some do not; that frame
	// itself must exit.
	order := make([]int, len(local))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return topScore(local[order[a]].Detections) < topScore(local[order[b]].Detections)
	})
	own := order[len(order)/2]
	ownScore := topScore(local[own].Detections)

	for _, th := range []float64{math.Inf(-1), 0, 0.5, math.Inf(1), ownScore} {
		policy := nn.ExitPolicy{Threshold: th}
		got, err := det.Detect(images, policy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleDetect(det, images, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %g: Detect differs from the per-frame gate\ngot  %+v\nwant %+v", th, got, want)
		}
		if th == ownScore && !got[own].ExitedLocal {
			t.Fatalf("frame %d did not exit at its own top score %g", own, ownScore)
		}
		gotEval, err := det.Evaluate(images, truths, policy)
		if err != nil {
			t.Fatal(err)
		}
		wantEval, err := oracleEvaluateGate(det, images, truths, policy)
		if err != nil {
			t.Fatal(err)
		}
		if gotEval != wantEval {
			t.Fatalf("threshold %g: Evaluate %+v, gate oracle %+v", th, gotEval, wantEval)
		}
	}

	// At the extremes the gate is one head alone.
	for _, c := range []struct {
		th       float64
		head     nn.Layer
		exitRate float64
	}{{math.Inf(-1), det.net.Exit1, 1}, {math.Inf(1), det.net.Tail, 0}} {
		got, err := det.Evaluate(images, truths, nn.ExitPolicy{Threshold: c.th})
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleEvaluateHead(det, images, truths, c.head)
		if err != nil {
			t.Fatal(err)
		}
		if got.ClassAccuracy != want.ClassAccuracy || got.MeanIoU != want.MeanIoU || got.ExitRate != c.exitRate {
			t.Fatalf("threshold %g: Evaluate %+v, head oracle %+v, want exit rate %g", c.th, got, want, c.exitRate)
		}
	}
}
