// Crimewatch: the §IV.A.2 suspicious-behavior application. It trains the
// entropy-gated ResNet+LSTM recognizer (Figs. 7/8), monitors surveillance
// clips from a city camera, indexes the recognized actions in HBase, and
// drains the operator alert queue the paper describes.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/video"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crimewatch:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(11))
	inf, err := core.New(core.DefaultConfig(), rng)
	if err != nil {
		return err
	}

	acfg := action.Config{
		FrameSize: 12, Frames: 6, Classes: int(video.NumActions),
		Channels: 4, Hidden: 10, Shortcut: nn.ShortcutConv,
	}
	rec, err := action.New(acfg, rng)
	if err != nil {
		return err
	}
	train, err := video.Generate(video.Config{Clips: 144, Frames: acfg.Frames, Size: acfg.FrameSize}, rng)
	if err != nil {
		return err
	}
	opt := nn.NewAdam(0.01)
	fmt.Println("training ResNet+LSTM action recognizer (conv-shortcut blocks, two exits) ...")
	for e := 0; e < 25; e++ {
		if _, _, err := rec.TrainEpoch(train, 24, opt, rng); err != nil {
			return err
		}
	}
	feat, raw := rec.FeatureBytesPerClip()
	fmt.Printf("feature sequence: %d B/clip vs %d B raw (%.1fx upstream saving)\n",
		feat, raw, float64(raw)/float64(feat))

	// Monitor a live feed with the entropy gate.
	feed, err := video.Generate(video.Config{Clips: 48, Frames: acfg.Frames, Size: acfg.FrameSize}, rng)
	if err != nil {
		return err
	}
	cam := inf.Cameras[3]
	cw := inf.NewCrimeWatch(rec, nn.ExitPolicy{Threshold: -0.6})
	rep, err := cw.MonitorClips(cam.ID, feed, inf.Config().Epoch)
	if err != nil {
		return err
	}
	fmt.Printf("camera %s: %d clips → %d exit-1 decisions on device, %d KB shipped, %d alerts raised\n",
		cam.ID, rep.Clips, rep.LocalExits, rep.ServerBytes/1024, rep.Alerts)

	// Operator console: drain and display alerts.
	alerts, err := inf.PendingAlerts(100)
	if err != nil {
		return err
	}
	fmt.Printf("operator queue: %d alerts\n", len(alerts))
	show := alerts
	if len(show) > 5 {
		show = show[:5]
	}
	for _, a := range show {
		fmt.Printf("  ALERT %s clip %d: %s (answered at %s exit)\n", a.CameraID, a.ClipID, a.Action, a.Exit)
	}

	// Accuracy audit against the known labels of this synthetic feed.
	res, err := rec.Evaluate(feed, cw.Policy)
	if err != nil {
		return err
	}
	fmt.Printf("audit: overall accuracy %.2f, exit-1 rate %.0f%%, exit-1 accuracy %.2f\n",
		res.Accuracy, res.ExitRate*100, res.Exit1Accuracy)
	return nil
}
