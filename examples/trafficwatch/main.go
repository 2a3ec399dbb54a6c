// Trafficwatch: the §IV.A.1 vehicle detection & classification application.
// It trains the early-exit detector pair (Fig. 5), annotates frames from a
// DOTD camera, simulates the fog-tier offload economics, and answers an
// AMBER-alert-style vehicle search against the annotation index.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fog"
	"repro/internal/nn"
	"repro/internal/vision"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trafficwatch:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))
	cfg := core.DefaultConfig()
	inf, err := core.New(cfg, rng)
	if err != nil {
		return err
	}

	// Train the detector pair on the synthetic vehicle catalog.
	dcfg := detect.Config{InC: 3, Size: 12, Grid: 3, Classes: 4, StemChannels: 8}
	det, err := detect.New(dcfg, rng)
	if err != nil {
		return err
	}
	catalog, err := vision.Catalog(dcfg.Classes, rng)
	if err != nil {
		return err
	}
	train, err := vision.GenerateDetection(catalog, 96, dcfg.Size, rng)
	if err != nil {
		return err
	}
	opt := nn.NewAdam(0.005)
	fmt.Println("training tiny+full detector pair ...")
	for e := 0; e < 20; e++ {
		if err := det.TrainEpoch(train.Images, train.Truths, 16, opt, rng); err != nil {
			return err
		}
	}
	fmt.Printf("tiny model: %d params | full model: %d params\n", det.TinyParams(), det.FullParams())

	// Annotate one camera's live frames with the 0.5 gate; the fog replay
	// below gates on the same policy.
	exit := nn.ExitPolicy{Threshold: 0.5}
	feed, err := vision.GenerateDetection(catalog, 64, dcfg.Size, rng)
	if err != nil {
		return err
	}
	cam := inf.Cameras[0]
	vw := inf.NewVehicleWatch(det, exit)
	rep, err := vw.AnnotateFrames(cam.ID, feed.Images)
	if err != nil {
		return err
	}
	fmt.Printf("camera %s (%s): %d frames → %d local exits, %d server assists, %d KB shipped, %d annotations\n",
		cam.ID, cam.Corridor, rep.Frames, rep.LocalExits, rep.ServerAssists, rep.UpstreamBytes/1024, rep.Annotations)

	// AMBER alert: find every sighting of the target class.
	target := catalog[1]
	hits, err := vw.FindVehicle(target.ID)
	if err != nil {
		return err
	}
	fmt.Printf("AMBER-alert search for %q: %d sightings", target.Name(), len(hits))
	if len(hits) > 0 {
		fmt.Printf(" (best score %.2f at %s)", hits[0].Score, hits[0].Row)
	}
	fmt.Println()

	// Fog economics: replay the same workload through the tier simulator.
	items := make([]fog.InferenceItem, rep.Frames)
	localResults, err := det.DetectLocal(feed.Images, 0.05)
	if err != nil {
		return err
	}
	for i, lr := range localResults {
		items[i] = fog.InferenceItem{
			ID: fmt.Sprintf("f%03d", i), EdgeIdx: i % len(inf.Deployment.Edges),
			ReleaseMs: float64(i) * 33, Confidence: lr.TopScore,
			RawBytes: dcfg.Size * dcfg.Size * 3 * 8, FeatureBytes: lr.FeatureBytes,
			LocalOps: 150, ServerOps: 1800, FullOps: 2200,
		}
	}
	for _, p := range []fog.Policy{
		{Kind: fog.PolicyCloudOnly},
		{Kind: fog.PolicyEarlyExit, Exit: exit},
	} {
		jobs, err := p.JobsFor(inf.Deployment, items)
		if err != nil {
			return err
		}
		res, err := inf.Deployment.Topo.Run(jobs)
		if err != nil {
			return err
		}
		fmt.Printf("fog policy %-12s mean latency %6.1f ms, total bytes %d KB\n",
			p.Kind.String(), res.MeanMs, res.TotalBytes/1024)
	}
	_ = citydata.Cities() // the deployment's coverage area
	return nil
}
