package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fusion"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/tensor"
	"repro/internal/video"
	"repro/internal/vision"
	"repro/internal/viz"
)

// detectorSetup trains the shared early-exit detector used by E5/E6.
func detectorSetup(rng *rand.Rand, epochs int) (*detect.Detector, *vision.DetectionSet, *vision.DetectionSet, []vision.Class, error) {
	cfg := detect.Config{InC: 3, Size: 12, Grid: 3, Classes: 4, StemChannels: 8}
	det, err := detect.New(cfg, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	catalog, err := vision.Catalog(cfg.Classes, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	train, err := vision.GenerateDetection(catalog, 96, cfg.Size, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	test, err := vision.GenerateDetection(catalog, 64, cfg.Size, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	opt := nn.NewAdam(0.005)
	for e := 0; e < epochs; e++ {
		if _, _, err := det.TrainEpoch(train.Images, train.Truths, 16, opt, rng); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return det, train, test, catalog, nil
}

// E5EarlyExitDetector trains the Fig. 5 tiny/full detector pair and sweeps
// the classification-score threshold, measuring exit rate, accuracy, and
// shipped feature bytes.
func E5EarlyExitDetector(rng *rand.Rand) (*Result, error) {
	det, _, test, catalog, err := detectorSetup(rng, 20)
	if err != nil {
		return nil, err
	}
	// A policy at -Inf lets every frame exit (the tiny head alone), one at
	// +Inf none (the full tail alone).
	evalTiny, err := det.Evaluate(test.Images, test.Truths, nn.ExitPolicy{Threshold: math.Inf(-1)})
	if err != nil {
		return nil, err
	}
	evalFull, err := det.Evaluate(test.Images, test.Truths, nn.ExitPolicy{Threshold: math.Inf(1)})
	if err != nil {
		return nil, err
	}
	heads := viz.NewTable("model comparison (held-out)", "model", "params", "class acc", "mean IoU")
	heads.AddRow("tiny (local device)", det.TinyParams(), evalTiny.ClassAccuracy, evalTiny.MeanIoU)
	heads.AddRow("full (analysis server)", det.FullParams(), evalFull.ClassAccuracy, evalFull.MeanIoU)

	sweep := viz.NewTable("threshold sweep (Fig. 5 gate)", "threshold", "local-exit %", "accuracy", "upstream KB")
	ths := []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.01}
	var exitPct, acc, upBytes []float64
	var appRow detect.EvalResult
	for _, th := range ths {
		ev, err := det.Evaluate(test.Images, test.Truths, nn.ExitPolicy{Threshold: th})
		if err != nil {
			return nil, err
		}
		if th == e5AppThreshold {
			appRow = ev
		}
		pct := ev.ExitRate * 100
		sweep.AddRow(th, pct, ev.ClassAccuracy, ev.UpstreamBytes/1024)
		exitPct, acc, upBytes = append(exitPct, pct), append(acc, ev.ClassAccuracy), append(upBytes, float64(ev.UpstreamBytes))
	}

	if det.TinyParams() >= det.FullParams() {
		return nil, fmt.Errorf("E5: tiny head has %d params, full head %d: want tiny fewer", det.TinyParams(), det.FullParams())
	}
	if !(evalFull.ClassAccuracy > evalTiny.ClassAccuracy && evalTiny.ClassAccuracy > 0.25) {
		return nil, fmt.Errorf("E5: class accuracy full %.4g, tiny %.4g, chance 0.25: want full > tiny > chance",
			evalFull.ClassAccuracy, evalTiny.ClassAccuracy)
	}
	if evalFull.MeanIoU <= 0.25 {
		return nil, fmt.Errorf("E5: full head mean IoU %.4g, want above 0.25 (a random box scores about 0.1)", evalFull.MeanIoU)
	}
	last := len(ths) - 1
	if exitPct[0] != 100 || exitPct[last] != 0 {
		return nil, fmt.Errorf("E5: local exits at threshold %g and %g are %.4g%% and %.4g%%, want 100%% and 0%%",
			ths[0], ths[last], exitPct[0], exitPct[last])
	}
	if acc[last] <= acc[0] {
		return nil, fmt.Errorf("E5: accuracy %.4g with no local exits is not above %.4g with all of them", acc[last], acc[0])
	}
	if err := sweepOrder("E5", "local-exit %", ths, exitPct, -1); err != nil {
		return nil, err
	}
	if err := sweepOrder("E5", "upstream bytes", ths, upBytes, +1); err != nil {
		return nil, err
	}
	search, err := e5VehicleWatch(rng, det, test, catalog, appRow)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID: "E5", Title: "early-exit vehicle detector threshold sweep",
		Tables: []*viz.Table{heads, sweep, search},
		Notes: []string{
			"paper claim (Fig. 5): confident Tiny-YOLO outputs are accepted locally; otherwise the pre-branch feature map goes to the server",
			"expected shape: raising the threshold lowers exit rate, raises accuracy toward the full model, and raises upstream bytes",
			"paper claim (§IV.A.1): detections are annotated, indexed in HBase and searched for a wanted vehicle; the application's split is the sweep's row at its threshold",
		},
	}, nil
}

// e5AppThreshold is the sweep row the vehicle-search application runs at.
const e5AppThreshold = 0.4

// e5VehicleWatch runs the §IV.A.1 application on a stack booted from rng:
// VehicleWatch annotates the held-out frames at e5AppThreshold and indexes
// every detection in HBase, and FindVehicle answers the AMBER-alert search
// for each class. Its local exits and upstream bytes must be row's, the
// sweep's at that threshold, and every frame whose top annotation has its
// true class must be among that class's sightings.
func e5VehicleWatch(rng *rand.Rand, det *detect.Detector, test *vision.DetectionSet, catalog []vision.Class, row detect.EvalResult) (*viz.Table, error) {
	inf, err := core.New(core.DefaultConfig(), rng)
	if err != nil {
		return nil, err
	}
	cam := inf.Cameras[0].ID
	vw := inf.NewVehicleWatch(det, nn.ExitPolicy{Threshold: e5AppThreshold})
	rep, err := vw.AnnotateFrames(cam, test.Images)
	if err != nil {
		return nil, err
	}
	n := test.Images.Dim(0)
	if float64(rep.LocalExits)/float64(n) != row.ExitRate || rep.UpstreamBytes != row.UpstreamBytes {
		return nil, fmt.Errorf("E5: VehicleWatch at threshold %g exits %d of %d frames locally and ships %d B; the sweep row exits %.4g%% and ships %d B",
			e5AppThreshold, rep.LocalExits, n, rep.UpstreamBytes, row.ExitRate*100, row.UpstreamBytes)
	}
	// Each frame's annotations, best first, as the gate gives them.
	frames, err := det.Detect(test.Images, vw.Policy)
	if err != nil {
		return nil, err
	}
	tb := viz.NewTable(fmt.Sprintf("AMBER-alert search on the booted stack (§IV.A.1, camera %s, threshold %g)", cam, e5AppThreshold),
		"vehicle", "frames", "top annotation right", "sightings")
	for c, class := range catalog {
		hits, err := vw.FindVehicle(c)
		if err != nil {
			return nil, err
		}
		sighted := make(map[string]bool, len(hits))
		for _, h := range hits {
			sighted[h.Row] = true
		}
		total, right := 0, 0
		for i, fr := range frames {
			if len(test.Truths[i]) == 0 || test.Truths[i][0].Class != c {
				continue
			}
			total++
			if len(fr.Detections) == 0 || fr.Detections[0].Class != c {
				continue
			}
			right++
			if !sighted[core.FrameRow(cam, i)] {
				return nil, fmt.Errorf("E5: frame %d's top annotation is its true class %s, but the search for it does not return the frame", i, class.Name())
			}
		}
		tb.AddRow(class.Name(), total, right, len(hits))
	}
	return tb, nil
}

// E6DetectionExamples reproduces Fig. 6: qualitative detections on sample
// frames with boxes, classes, and which path (local/server) answered.
func E6DetectionExamples(rng *rand.Rand) (*Result, error) {
	det, _, test, catalog, err := detectorSetup(rng, 15)
	if err != nil {
		return nil, err
	}
	const samples = 8
	imgs, err := nn.GatherRows(test.Images, seqInts(samples))
	if err != nil {
		return nil, err
	}
	frames, err := det.Detect(imgs, nn.ExitPolicy{Threshold: 0.5})
	if err != nil {
		return nil, err
	}
	tb := viz.NewTable("Fig. 6 detection examples", "frame", "truth", "predicted", "score", "IoU", "path")
	for i, fr := range frames {
		dets := fr.Detections
		path := "server"
		if fr.ExitedLocal {
			path = "local"
		}
		truth := test.Truths[i][0]
		truthName := catalog[truth.Class].Name()
		if len(dets) == 0 {
			tb.AddRow(i, truthName, "(none)", 0.0, 0.0, path)
			continue
		}
		top := dets[0]
		tb.AddRow(i, truthName, catalog[top.Class].Name(), top.Score, detect.IoU(top.Box, truth.Box), path)
	}
	return &Result{
		ID: "E6", Title: "vehicle detection examples",
		Tables: []*viz.Table{tb},
		Notes:  []string{"paper artifact (Fig. 6): example detections with class labels from the prototype system"},
	}, nil
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// E7ActionRecognition trains the Fig. 7 ResNet+LSTM recognizer and sweeps
// the entropy gate, plus the temporal ablation on loiter/walk/run: the same
// recognizer, from the same initial weights and batch order, trained and
// scored once on moving clips and once on frozen ones (every frame the
// clip's last), so motion is the only variable.
func E7ActionRecognition(rng *rand.Rand) (*Result, error) {
	cfg := action.Config{
		FrameSize: 12, Frames: 6, Classes: int(video.NumActions),
		Channels: 4, Hidden: 10, Shortcut: nn.ShortcutConv,
	}
	initSeed, orderSeed := rng.Int63(), rng.Int63()
	train, err := video.Generate(video.Config{Clips: 144, Frames: cfg.Frames, Size: cfg.FrameSize}, rng)
	if err != nil {
		return nil, err
	}
	test, err := video.Generate(video.Config{Clips: 72, Frames: cfg.Frames, Size: cfg.FrameSize}, rng)
	if err != nil {
		return nil, err
	}
	fit := func(set *video.ClipSet) (*action.Recognizer, []float64, error) {
		rec, err := action.New(cfg, rand.New(rand.NewSource(initSeed)))
		if err != nil {
			return nil, nil, err
		}
		opt, order := nn.NewAdam(0.01), rand.New(rand.NewSource(orderSeed))
		var losses []float64
		for e := 0; e < 30; e++ {
			exit1Loss, tailLoss, err := rec.TrainEpoch(set, 24, opt, order)
			if err != nil {
				return nil, nil, err
			}
			losses = append(losses, exit1Loss+tailLoss)
		}
		return rec, losses, nil
	}
	rec, losses, err := fit(train)
	if err != nil {
		return nil, err
	}

	sweep := viz.NewTable("entropy-gate sweep (Fig. 7 exits)", "neg-entropy threshold", "exit-1 %", "accuracy", "server KB")
	ths := []float64{-1e9, -1.2, -0.8, -0.4, -0.1, 1e9}
	var exitRate, acc, shipped []float64
	var appRow action.EvalResult
	for _, th := range ths {
		res, err := rec.Evaluate(test, nn.ExitPolicy{Threshold: th})
		if err != nil {
			return nil, err
		}
		if th == e7AppThreshold {
			appRow = res
		}
		exitRate, acc, shipped = append(exitRate, res.ExitRate), append(acc, res.Accuracy), append(shipped, float64(res.ServerBytes))
		label := fmt.Sprintf("%.2g", th)
		if th <= -1e8 {
			label = "always exit 1"
		}
		if th >= 1e8 {
			label = "always server"
		}
		sweep.AddRow(label, res.ExitRate*100, res.Accuracy, res.ServerBytes/1024)
	}

	// Ablation: the same recognizer on moving vs frozen clips.
	frozen, _, err := fit(train.Frozen())
	if err != nil {
		return nil, err
	}
	frozenPreds, err := frozen.Predict(test.Frozen().Clips)
	if err != nil {
		return nil, err
	}
	lstmPreds, err := rec.Predict(test.Clips)
	if err != nil {
		return nil, err
	}
	temporalAcc := func(preds []int) float64 {
		correct, total := 0, 0
		for i, label := range test.Labels {
			if label > int(video.Run) {
				continue
			}
			total++
			if preds[i] == label {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(correct) / float64(total)
	}
	// Confusion matrix of the full server path on held-out clips.
	names := make([]string, int(video.NumActions))
	for a := video.Action(0); a < video.NumActions; a++ {
		names[a] = a.String()
	}
	confusion := viz.ConfusionMatrix("confusion matrix (server path, held-out)", test.Labels, lstmPreds, names)

	lstmAcc, frozenAcc := temporalAcc(lstmPreds), temporalAcc(frozenPreds)
	ablation := viz.NewTable("temporal ablation (loiter/walk/run, held-out)", "model", "accuracy")
	ablation.AddRow("CNN+LSTM (paper)", lstmAcc)
	ablation.AddRow("CNN+LSTM on frozen clips", frozenAcc)

	if losses[len(losses)-1] >= losses[0] {
		return nil, fmt.Errorf("E7: training loss %.4g in the last epoch is not below %.4g in the first", losses[len(losses)-1], losses[0])
	}
	last := len(ths) - 1
	if exitRate[0] != 1 || shipped[0] != 0 {
		return nil, fmt.Errorf("E7: always exit 1 answers %.4g%% at exit 1 and ships %g B, want 100%% and 0 B", exitRate[0]*100, shipped[0])
	}
	if exitRate[last] != 0 || shipped[last] == 0 {
		return nil, fmt.Errorf("E7: always server answers %.4g%% at exit 1 and ships %g B, want 0%% and more than 0 B", exitRate[last]*100, shipped[last])
	}
	if acc[last] <= 1.0/6 {
		return nil, fmt.Errorf("E7: server-path accuracy %.4g does not beat chance (1/6)", acc[last])
	}
	if err := sweepOrder("E7", "exit-1 rate", ths, exitRate, -1); err != nil {
		return nil, err
	}
	if err := sweepOrder("E7", "server bytes", ths, shipped, +1); err != nil {
		return nil, err
	}
	if lstmAcc <= frozenAcc {
		return nil, fmt.Errorf("E7: CNN+LSTM on moving clips %.4g does not beat the same recognizer on frozen clips %.4g on loiter/walk/run", lstmAcc, frozenAcc)
	}

	alerts, err := e7CrimeWatch(rng, rec, test, appRow)
	if err != nil {
		return nil, err
	}

	feat, raw := rec.FeatureBytesPerClip()
	return &Result{
		ID: "E7", Title: "CNN+LSTM action recognition with entropy exits",
		Tables: []*viz.Table{sweep, confusion, ablation, alerts},
		Notes: []string{
			"paper claim (Fig. 7): entropy-gated exit 1 on the local device; block-1 features to the server otherwise",
			fmt.Sprintf("feature sequence costs %d B/clip vs %d B raw (%.1fx saving)", feat, raw, float64(raw)/float64(feat)),
			"paper claim (§III.B): LSTM's long-range correlations are what separate time-only classes",
			"paper claim (§IV.A.2): a suspicious activity is logged and sent to a human operator; the application's split is the sweep's row at its threshold",
		},
	}, nil
}

// e7AppThreshold is the sweep row the operator-alert application runs at.
const e7AppThreshold = -0.8

// e7CrimeWatch runs the §IV.A.2 application on a stack booted from rng:
// CrimeWatch classifies the held-out clips at e7AppThreshold, indexes each
// label in HBase and raises an alert per suspicious clip, which the operator
// drains with PendingAlerts. Its local exits and server bytes must be row's,
// the sweep's at that threshold, and the alerts drained must be the clips
// predicted suspicious, clip by clip.
func e7CrimeWatch(rng *rand.Rand, rec *action.Recognizer, test *video.ClipSet, row action.EvalResult) (*viz.Table, error) {
	cfg := core.DefaultConfig()
	inf, err := core.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	cam := inf.Cameras[0].ID
	cw := inf.NewCrimeWatch(rec, nn.ExitPolicy{Threshold: e7AppThreshold})
	rep, err := cw.MonitorClips(cam, test, cfg.Epoch)
	if err != nil {
		return nil, err
	}
	n := len(test.Labels)
	if float64(rep.LocalExits)/float64(n) != row.ExitRate || rep.ServerBytes != row.ServerBytes {
		return nil, fmt.Errorf("E7: CrimeWatch at threshold %g answers %d of %d clips at exit 1 and ships %d B; the sweep row answers %.4g%% and ships %d B",
			e7AppThreshold, rep.LocalExits, n, rep.ServerBytes, row.ExitRate*100, row.ServerBytes)
	}
	alerts, err := inf.PendingAlerts(n)
	if err != nil {
		return nil, err
	}
	preds, err := rec.Net().Infer(test.Clips, cw.Policy)
	if err != nil {
		return nil, err
	}
	raised, local, right := map[video.Action]int{}, map[video.Action]int{}, map[video.Action]int{}
	k := 0
	for i, p := range preds {
		act := video.Action(p.Class)
		if !act.Suspicious() {
			continue
		}
		exit := "server"
		if p.ExitedLocal {
			exit = "local"
		}
		if k == len(alerts) {
			return nil, fmt.Errorf("E7: clip %d is predicted %s, but the operator drains no alert for it", i, act)
		}
		a := alerts[k]
		k++
		if a.CameraID != cam || a.ClipID != i || a.Action != act.String() || a.Exit != exit || !a.Time.Equal(cfg.Epoch) {
			return nil, fmt.Errorf("E7: alert %+v, want camera %s clip %d %s answered at the %s exit at %v", a, cam, i, act, exit, cfg.Epoch)
		}
		raised[act]++
		if p.ExitedLocal {
			local[act]++
		}
		if test.Labels[i] == p.Class {
			right[act]++
		}
	}
	if k != len(alerts) {
		return nil, fmt.Errorf("E7: the operator drains %d alerts, %d more than the clips predicted suspicious", len(alerts), len(alerts)-k)
	}
	tb := viz.NewTable(fmt.Sprintf("operator alerts on the booted stack (§IV.A.2, camera %s, threshold %.2g)", cam, e7AppThreshold),
		"action", "alerts", "at exit 1", "true action")
	for a := video.Action(0); a < video.NumActions; a++ {
		if a.Suspicious() {
			tb.AddRow(a.String(), raised[a], local[a], right[a])
		}
	}
	return tb, nil
}

// E8ShortcutAblation compares the Fig. 8 ResNet-block shortcut variants:
// the paper's convolutional shortcut vs max-pool and identity shortcuts.
func E8ShortcutAblation(rng *rand.Rand) (*Result, error) {
	catalog, err := vision.Catalog(4, rng)
	if err != nil {
		return nil, err
	}
	train, err := vision.GenerateClassification(catalog, 160, 12, rng)
	if err != nil {
		return nil, err
	}
	test, err := vision.GenerateClassification(catalog, 80, 12, rng)
	if err != nil {
		return nil, err
	}
	// Grayscale conversion keeps the block single-input-channel like Fig. 8.
	toGray := func(x *tensor.Tensor) (*tensor.Tensor, error) {
		n, size := x.Dim(0), x.Dim(2)
		out := tensor.New(n, 1, size, size)
		for i := 0; i < n; i++ {
			for y := 0; y < size; y++ {
				for xx := 0; xx < size; xx++ {
					v := (x.At(i, 0, y, xx) + x.At(i, 1, y, xx) + x.At(i, 2, y, xx)) / 3
					out.Set(v, i, 0, y, xx)
				}
			}
		}
		return out, nil
	}
	grayTrain, err := toGray(train.Images)
	if err != nil {
		return nil, err
	}
	grayTest, err := toGray(test.Images)
	if err != nil {
		return nil, err
	}

	tb := viz.NewTable("Fig. 8 shortcut ablation", "shortcut", "params", "train acc", "test acc")
	kinds := []nn.ShortcutKind{nn.ShortcutConv, nn.ShortcutPool, nn.ShortcutIdentity}
	params := make([]int, len(kinds))
	testAccs := make([]float64, len(kinds))
	for ki, kind := range kinds {
		r := rand.New(rand.NewSource(77))
		scfg := nn.ResidualConfig{InC: 1, OutC: 6, Stride: 2, Shortcut: kind}
		if kind == nn.ShortcutIdentity {
			// Identity requires matching geometry: no downsampling, equal
			// channels — exactly why the paper replaces it.
			scfg = nn.ResidualConfig{InC: 1, OutC: 1, Stride: 1, Shortcut: kind}
		}
		block, err := nn.NewResidualBlock(scfg, nn.WithRand(r))
		if err != nil {
			return nil, err
		}
		featDim := scfg.OutC * (12 / scfg.Stride) * (12 / scfg.Stride)
		net := nn.NewSequential(
			block,
			nn.NewFlatten(),
			nn.NewDense(featDim, 16, nn.WithRand(r)),
			nn.NewTanh(),
			nn.NewDense(16, 4, nn.WithRand(r)),
		)
		opt := nn.NewAdam(0.005)
		var trainAcc float64
		for e := 0; e < 25; e++ {
			// A fresh loss per epoch, so its accuracy is the last epoch's.
			ce, err := nn.NewSoftmaxCrossEntropy(train.Labels, grayTrain.Dim(0))
			if err != nil {
				return nil, err
			}
			if _, err := nn.TrainEpoch(net, grayTrain, 32, opt, r, ce.Batch); err != nil {
				return nil, err
			}
			trainAcc = ce.Accuracy()
		}
		logits, err := net.Forward(grayTest, false)
		if err != nil {
			return nil, err
		}
		testAcc := nn.Accuracy(logits, test.Labels)
		params[ki], testAccs[ki] = nn.NumParams(net.Params()), testAcc
		tb.AddRow(kind.String(), params[ki], trainAcc, testAcc)
	}
	// kinds[0] is conv, kinds[1] maxpool, kinds[2] identity.
	if testAccs[0] < testAccs[1] || testAccs[0] < testAccs[2] {
		return nil, fmt.Errorf("E8: conv shortcut test accuracy %.4g is below maxpool %.4g or identity %.4g", testAccs[0], testAccs[1], testAccs[2])
	}
	if params[0] <= params[1] || params[0] <= params[2] {
		return nil, fmt.Errorf("E8: conv shortcut model has %d params, maxpool %d, identity %d: the learned projection adds none", params[0], params[1], params[2])
	}
	return &Result{
		ID: "E8", Title: "ResNet shortcut ablation",
		Tables: []*viz.Table{tb},
		Notes: []string{
			"paper claim (Fig. 8): 'we use a convolutional layer for [the] shortcut path instead of [the] max pooling layer mostly used'",
			"the conv shortcut supports downsampling + channel growth that identity cannot, with learned (not lossy) projection unlike max-pool",
		},
	}, nil
}

// E11MultiModalFusion reproduces §III.C: autoencoder fusion of audio+video
// gunshot evidence vs single modalities, and CCA recovery of the shared
// signal.
func E11MultiModalFusion(rng *rand.Rand) (*Result, error) {
	const da, db = 6, 8
	makeData := func(n int) (*tensor.Tensor, *tensor.Tensor, []int) {
		xa := tensor.New(n, da)
		xb := tensor.New(n, db)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := i % 2
			labels[i] = cls
			for j := 0; j < da; j++ {
				xa.Set(0.3*rng.NormFloat64(), i, j)
			}
			for j := 0; j < db; j++ {
				xb.Set(0.3*rng.NormFloat64(), i, j)
			}
			if cls == 1 {
				if rng.Float64() > 0.2 {
					xa.Set(1+0.2*rng.NormFloat64(), i, 0)
				}
				if rng.Float64() > 0.2 {
					xb.Set(1+0.2*rng.NormFloat64(), i, 0)
				}
			} else {
				if rng.Float64() < 0.4 {
					xa.Set(1+0.2*rng.NormFloat64(), i, 0)
				} else if rng.Float64() < 0.4 {
					xb.Set(1+0.2*rng.NormFloat64(), i, 0)
				}
			}
		}
		return xa, xb, labels
	}
	trainA, trainB, trainY := makeData(400)
	testA, testB, testY := makeData(200)

	ae, err := fusion.NewAutoencoder(fusion.AutoencoderConfig{DimA: da, DimB: db, Hidden: 12, Bottleneck: 6}, rng)
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(0.01)
	for e := 0; e < 120; e++ {
		if _, _, err := ae.TrainStep(trainA, trainB); err != nil {
			return nil, err
		}
		opt.Step(ae.Params())
	}
	trainClf := func(x *tensor.Tensor, labels []int, dim int, seed int64) (nn.Layer, error) {
		r := rand.New(rand.NewSource(seed))
		net := nn.NewSequential(
			nn.NewDense(dim, 16, nn.WithRand(r)), nn.NewTanh(), nn.NewDense(16, 2, nn.WithRand(r)),
		)
		ce, err := nn.NewSoftmaxCrossEntropy(labels, x.Dim(0))
		if err != nil {
			return nil, err
		}
		copt := nn.NewAdam(0.02)
		for e := 0; e < 80; e++ {
			if _, err := nn.TrainEpoch(net, x, 64, copt, r, ce.Batch); err != nil {
				return nil, err
			}
		}
		return net, nil
	}
	fusedTrain, err := ae.Encode(trainA, trainB)
	if err != nil {
		return nil, err
	}
	fusedTest, err := ae.Encode(testA, testB)
	if err != nil {
		return nil, err
	}
	tb := viz.NewTable("gunshot detection: fusion vs single modalities", "features", "test accuracy")
	var accs []float64 // audio, video, fused
	for _, spec := range []struct {
		name       string
		trainX     *tensor.Tensor
		testX      *tensor.Tensor
		dim        int
		seed       int64
		trainYy    []int
		testLabels []int
	}{
		{"audio only", trainA, testA, da, 1, trainY, testY},
		{"video only", trainB, testB, db, 2, trainY, testY},
		{"fused autoencoder", fusedTrain, fusedTest, 6, 3, trainY, testY},
	} {
		net, err := trainClf(spec.trainX, spec.trainYy, spec.dim, spec.seed)
		if err != nil {
			return nil, err
		}
		logits, err := net.Forward(spec.testX, false)
		if err != nil {
			return nil, err
		}
		acc := nn.Accuracy(logits, spec.testLabels)
		tb.AddRow(spec.name, acc)
		accs = append(accs, acc)
	}
	if accs[2] <= accs[0] || accs[2] <= accs[1] {
		return nil, fmt.Errorf("E11: fused accuracy %.4g does not beat audio only %.4g and video only %.4g", accs[2], accs[0], accs[1])
	}

	// CCA on a controlled shared-latent pair: each view embeds one common
	// signal (the event intensity both sensors observe) among independent
	// noise dimensions; CCA must recover exactly one strong canonical pair.
	const ccaN = 600
	xr := make([][]float64, ccaN)
	yr := make([][]float64, ccaN)
	for i := 0; i < ccaN; i++ {
		shared := rng.NormFloat64()
		xr[i] = []float64{shared + 0.15*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		yr[i] = []float64{rng.NormFloat64(), shared + 0.15*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	cca, err := fusion.CCA(xr, yr, 3, 1e-6)
	if err != nil {
		return nil, err
	}
	if c := cca.Correlations; c[0] <= 0.9 || c[0] <= c[1] {
		return nil, fmt.Errorf("E11: canonical correlations %.4g, %.4g: want the first > 0.9 and above the second", c[0], c[1])
	}
	ct := viz.NewTable("CCA on a shared-latent two-view pair", "pair", "correlation")
	for i, c := range cca.Correlations {
		ct.AddRow(i+1, c)
	}

	// Generalized CCA across three views (audio, video, text) — the
	// multi-view extension the paper cites [19].
	const gn = 120
	latent := make([]float64, gn)
	vA := make([][]float64, gn)
	vB := make([][]float64, gn)
	vC := make([][]float64, gn)
	for i := 0; i < gn; i++ {
		z := rng.NormFloat64()
		latent[i] = z
		vA[i] = []float64{z + 0.2*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		vB[i] = []float64{rng.NormFloat64(), z + 0.2*rng.NormFloat64()}
		vC[i] = []float64{0.7*z + 0.2*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	gcca, err := fusion.GCCA([][][]float64{vA, vB, vC}, 2, 1e-2)
	if err != nil {
		return nil, err
	}
	gt := viz.NewTable("generalized CCA across 3 views", "shared component", "|corr| with planted latent")
	for c := 0; c < 2; c++ {
		gt.AddRow(c+1, fusion.CorrelationWith(gcca.Shared, c, latent))
	}
	return &Result{
		ID: "E11", Title: "multi-modal autoencoder fusion + CCA",
		Tables: []*viz.Table{tb, ct, gt},
		Notes: []string{
			"paper claim (§III.C): combining modalities (video + sound for gunshots) raises performance over single channels",
			"CCA recovers the planted shared latent: the first canonical correlation dominates the (noise) remainder",
		},
	}, nil
}

// E12CameraControlDRL trains the §III.D DQN camera controller and compares
// it against random and static policies.
func E12CameraControlDRL(rng *rand.Rand) (*Result, error) {
	env, err := rl.NewCameraEnv(8, 40)
	if err != nil {
		return nil, err
	}
	agent, err := rl.NewDQN(env.StateDim(), env.NumActions(), rl.DefaultDQNConfig(), rng)
	if err != nil {
		return nil, err
	}
	cfg := rl.DefaultTrainConfig()
	cfg.Episodes = 100
	curve, err := rl.Train(agent, env, cfg, rng)
	if err != nil {
		return nil, err
	}
	evalRng := rand.New(rand.NewSource(991))
	const eps, steps = 40, 40
	dqn := rl.EvaluatePolicy(env, eps, steps, rl.GreedyPolicy(agent), evalRng)
	random := rl.EvaluatePolicy(env, eps, steps, rl.RandomPolicy(env.NumActions()), evalRng)
	static := rl.EvaluatePolicy(env, eps, steps, rl.StaticPolicy(rl.ActStay), evalRng)

	if !(dqn > static && static > random) {
		return nil, fmt.Errorf("E12: mean reward DQN %.4g, static %.4g, random %.4g: want DQN > static > random", dqn, static, random)
	}
	tb := viz.NewTable("camera control: mean episode reward", "policy", "reward")
	tb.AddRow("DQN (trained)", dqn)
	tb.AddRow("random", random)
	tb.AddRow("static (fixed aim)", static)

	early, _, _ := viz.Stats(curve[:10])
	late, _, _ := viz.Stats(curve[len(curve)-10:])
	return &Result{
		ID: "E12", Title: "deep RL camera control vs baselines",
		Tables: []*viz.Table{tb},
		Notes: []string{
			"paper claim (§III.D): DRL enables smart camera controls that rotate/zoom onto incidents",
			fmt.Sprintf("learning curve: first-10-episode mean %.1f → last-10 mean %.1f  %s", early, late, viz.Sparkline(curve)),
		},
	}, nil
}
