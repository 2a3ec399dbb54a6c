package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fog"
	"repro/internal/nn"
	"repro/internal/viz"
)

// E19LatencyAttribution decomposes the four-tier pipeline's end-to-end
// latency into per-stage wait (queueing) and service time at three
// early-exit offload thresholds. The attribution is exact by construction of
// the discrete-event scheduler — every millisecond between a frame's release
// and its finish belongs to exactly one stage — so the table must sum to the
// measured total latency, which the experiment verifies and reports.
func E19LatencyAttribution(rng *rand.Rand) (*Result, error) {
	d := fog.NewDeployment()
	work := fogWorkload(d, 600, 100, rng) // the E3 workload

	thresholds := []float64{0.2, 0.5, 0.8}
	attribution := viz.NewTable("per-stage latency attribution (600 frames @ 10fps/edge)",
		"threshold", "stage", "wait ms", "service ms", "total ms", "share %")
	summary := viz.NewTable("attribution vs measured end-to-end latency",
		"threshold", "mean ms", "Σ job latency ms", "Σ attributed ms", "residual ms")
	var notes []string
	for _, th := range thresholds {
		jobs, err := (fog.Policy{Kind: fog.PolicyEarlyExit, Exit: nn.ExitPolicy{Threshold: th}}).JobsFor(d, work)
		if err != nil {
			return nil, err
		}
		res, err := d.Topo.Run(jobs)
		if err != nil {
			return nil, err
		}
		var totalLatency float64
		for _, j := range res.Jobs {
			totalLatency += j.LatencyMs
		}
		// Summed in stage-name order: float addition in map order would
		// round the residual differently from run to run.
		var attributed float64
		for _, stage := range sortedKeys(res.Attribution) {
			ps := res.Attribution[stage]
			total := ps.WaitMs + ps.ServiceMs
			attributed += total
			attribution.AddRow(th, stage, ps.WaitMs, ps.ServiceMs, total,
				total/totalLatency*100)
		}
		residual := attributed - totalLatency
		// Printed to 1e-6 ms so that summation round-off, which moves with
		// any change to summation order, stays out of the table; the leak
		// check below reads the unrounded value.
		shown := math.Round(residual*1e6) / 1e6
		if shown == 0 {
			shown = 0 // never print -0
		}
		summary.AddRow(th, res.MeanMs, totalLatency, attributed, shown)
		if math.Abs(residual) > 1e-6*math.Max(1, totalLatency) {
			return nil, fmt.Errorf("E19: attribution at threshold %g leaks %.6f ms", th, residual)
		}
	}
	notes = append(notes,
		"every stage's wait+service sums to the measured end-to-end latency (residual ~0): the attribution accounts for all queueing and service time across edge, fog, server, cloud, and the links between them",
		"raising the threshold offloads more frames, shifting attribution from fog compute to fog→server transfer and server compute")
	return &Result{
		ID: "E19", Title: "per-tier latency attribution across offload thresholds",
		Tables: []*viz.Table{attribution, summary},
		Notes:  notes,
	}, nil
}
