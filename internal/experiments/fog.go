package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fog"
	"repro/internal/nn"
	"repro/internal/viz"
)

// E3FogOffloadSweep reproduces the Fig. 3 architecture claim: dividing
// computation across Edge/Fog/Server/Cloud tiers with confidence-gated
// early exit gives "fast and distributed analysis" — lower latency and far
// less upstream traffic than shipping everything to the server, at higher
// accuracy potential than staying local.
func E3FogOffloadSweep(rng *rand.Rand) (*Result, error) {
	d := fog.NewDeployment()
	work := fogWorkload(d, 600, 100, rng)
	fogUpstream := func(r *fog.Results) int {
		total := 0
		for key, b := range r.BytesByLink {
			for _, f := range d.FogIDs {
				if len(key) > len(f) && key[:len(f)] == f {
					total += b
				}
			}
		}
		return total
	}

	policies := viz.NewTable("offload policy comparison (600 frames @ 10fps/edge)",
		"policy", "mean ms", "p95 ms", "fog→server KB", "server busy ms", "fog busy ms")
	early05 := fog.Policy{Kind: fog.PolicyEarlyExit, Exit: nn.ExitPolicy{Threshold: 0.5}}
	var baselines []*fog.Results
	for _, p := range []struct {
		name   string
		policy fog.Policy
	}{
		// Every confidence is >= 0, so early exit at threshold 0 exits every
		// frame on the fog node: local-only.
		{"local-only", fog.Policy{Kind: fog.PolicyEarlyExit}},
		{fog.PolicyCloudOnly.String(), fog.Policy{Kind: fog.PolicyCloudOnly}},
		{fmt.Sprintf("%s@%g", fog.PolicyEarlyExit, early05.Exit.Threshold), early05},
	} {
		jobs, err := p.policy.JobsFor(d, work)
		if err != nil {
			return nil, err
		}
		res, err := d.Topo.Run(jobs)
		if err != nil {
			return nil, err
		}
		policies.AddRow(p.name, res.MeanMs, res.P95Ms, fogUpstream(res)/1024,
			res.BusyByTier[fog.Server], res.BusyByTier[fog.Fog])
		baselines = append(baselines, res)
	}

	sweep := viz.NewTable("early-exit threshold sweep", "threshold", "offload %", "mean ms", "fog→server KB")
	ths := []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0}
	var offloadPct, meanMs, upBytes []float64
	for _, th := range ths {
		jobs, err := (fog.Policy{Kind: fog.PolicyEarlyExit, Exit: nn.ExitPolicy{Threshold: th}}).JobsFor(d, work)
		if err != nil {
			return nil, err
		}
		res, err := d.Topo.Run(jobs)
		if err != nil {
			return nil, err
		}
		offloaded := 0
		for _, j := range res.Jobs {
			if slices.Contains(j.Stages, "fog→server") {
				offloaded++
			}
		}
		pct, up := float64(offloaded)/float64(len(res.Jobs))*100, fogUpstream(res)
		sweep.AddRow(th, pct, res.MeanMs, up/1024)
		offloadPct, meanMs, upBytes = append(offloadPct, pct), append(meanMs, res.MeanMs), append(upBytes, float64(up))
	}

	cloud, early := baselines[1], baselines[2]
	if early.MeanMs >= cloud.MeanMs || fogUpstream(early) >= fogUpstream(cloud) {
		return nil, fmt.Errorf("E3: early-exit@0.5 (%.2f ms, %d B) is not below server-only (%.2f ms, %d B) on both latency and fog→server bytes",
			early.MeanMs, fogUpstream(early), cloud.MeanMs, fogUpstream(cloud))
	}
	for _, c := range []struct {
		col  string
		vals []float64
	}{{"offload %", offloadPct}, {"mean ms", meanMs}, {"fog→server bytes", upBytes}} {
		if err := sweepOrder("E3", c.col, ths, c.vals, +1); err != nil {
			return nil, err
		}
	}
	return &Result{
		ID: "E3", Title: "four-tier fog pipeline offload sweep",
		Tables: []*viz.Table{policies, sweep},
		Notes: []string{fmt.Sprintf(
			"paper claim (Fig. 3): splitting computation across tiers gives fast distributed analysis — early-exit cuts fog→server bytes %.1fx and mean latency %.1fx vs ship-everything",
			float64(fogUpstream(cloud))/float64(max(1, fogUpstream(early))),
			cloud.MeanMs/early.MeanMs)},
	}, nil
}

// fogWorkload is n camera frames on d, round-robin across the edges, each
// edge releasing one every stepMs. E3 and E19 run one simulated minute of it
// (600 frames at 10 fps per edge).
func fogWorkload(d *fog.Deployment, n int, stepMs float64, rng *rand.Rand) []fog.InferenceItem {
	work := make([]fog.InferenceItem, n)
	for i := range work {
		work[i] = fog.InferenceItem{
			ID:           fmt.Sprintf("frame-%04d", i),
			EdgeIdx:      i % len(d.Edges),
			ReleaseMs:    float64(i/len(d.Edges)) * stepMs,
			Confidence:   rng.Float64(),
			RawBytes:     30000, // JPEG-scale frame
			FeatureBytes: 6000,  // intermediate feature map
			LocalOps:     150,   // tiny model
			ServerOps:    1800,  // remaining layers
			FullOps:      2200,  // full model from raw input
		}
	}
	return work
}
