package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

// tierSpans walks each trace's Breakdown and counts spans by tier,
// verifying per trace that the stages' exclusive times sum exactly to the
// root duration (the tracer's no-orphan/nesting invariant made measurable).
func tierSpans(tracer *telemetry.Tracer, ids []string) (map[string]int, error) {
	spans := make(map[string]int)
	for _, id := range ids {
		tv, err := tracer.Trace(id)
		if err != nil {
			return nil, fmt.Errorf("trace %s unresolvable: %w", id, err)
		}
		var sum float64
		for _, st := range tv.Breakdown() {
			tier := st.Tier
			if tier == "" {
				tier = "(untagged)"
			}
			spans[tier] += st.Spans
			sum += st.ExclusiveMs
		}
		if math.Abs(sum-tv.DurationMs) > 1e-6*math.Max(1, tv.DurationMs) {
			return nil, fmt.Errorf("trace %s: breakdown sums to %.9f ms, root is %.9f ms", id, sum, tv.DurationMs)
		}
	}
	return spans, nil
}

// E20TracedChaosSweep drives the four-tier frame pipeline under a single
// propagated trace per frame — edge capture → fog early-exit gate → broker
// hop → server inference → cloud archive — and shows the three consumers of
// that propagation working together: per-tier critical-path attribution
// computed from the propagated traces (exact by the nesting invariant),
// histogram exemplars on /metrics resolving tail latency to inspectable
// traces, and SLO burn rates provably moved by a chaos-injected second pass.
func E20TracedChaosSweep(rng *rand.Rand) (*Result, error) {
	seed := rng.Int63()
	inf, err := core.New(chaosConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	frameRng := rand.New(rand.NewSource(seed + 1))

	// Baseline arm: clean pass, exact attribution from propagated traces.
	// Each arm is 8 sweeps of the first 5 cameras.
	cams := inf.Cameras[:5]
	const sweeps = 8
	base, err := inf.IngestFrames(core.SyntheticFrames(cams, 0, sweeps, frameRng), "/warehouse/e20/features")
	if err != nil {
		return nil, err
	}
	if base.Stored == 0 || base.DeadLettered != 0 {
		return nil, fmt.Errorf("E20: baseline arm stored %d, dead-lettered %d", base.Stored, base.DeadLettered)
	}
	// The baseline spans time real work on the wall clock, so only the exact
	// sum-to-root check (inside tierSpans) and the span counts are
	// reproducible; the per-tier milliseconds of a live run are read from
	// /api/trace/{id} or `go run ./benchmark -trace`.
	spans, err := tierSpans(inf.Tracer, base.TraceIDs)
	if err != nil {
		return nil, fmt.Errorf("E20 baseline: %w", err)
	}
	attribution := viz.NewTable(
		fmt.Sprintf("per-tier spans of %d propagated traces (baseline arm; every breakdown sums exactly to its root)", len(base.TraceIDs)),
		"tier", "spans")
	for _, t := range sortedKeys(spans) {
		attribution.AddRow(t, spans[t])
	}

	before := inf.SLOs.Reports()

	// Chaos arm: poisoned records straight onto the inference topic (past the
	// chaos wrapper, so they always arrive) plus injected faults on every
	// seam. Propagated trace ids must survive redelivery, and the delivery
	// SLO's burn rate must move.
	const poisoned = 5
	for i := 0; i < poisoned; i++ {
		if _, _, err := inf.Broker.Produce("frames", "poison", []byte("{malformed")); err != nil {
			return nil, err
		}
	}
	inf.EnableChaos(faults.NewInjector(faults.Config{
		Seed: seed, ErrorRate: 0.15, BurstLen: 2,
	}))
	chaos, err := inf.IngestFrames(core.SyntheticFrames(cams, sweeps, sweeps, frameRng), "/warehouse/e20/features")
	if err != nil {
		return nil, err
	}
	inf.DisableChaos()
	for _, id := range chaos.TraceIDs {
		if _, err := inf.Tracer.Trace(id); err != nil {
			return nil, fmt.Errorf("E20 chaos: trace %s unresolvable: %w", id, err)
		}
	}
	after := inf.SLOs.Reports()

	slo := viz.NewTable("SLO burn rates before/after the chaos arm",
		"objective", "burn before", "burn after", "error rate after", "windowed total")
	var deliveryBefore, deliveryAfter float64
	for i, rep := range after {
		slo.AddRow(rep.Name, before[i].BurnRate, rep.BurnRate, rep.ErrorRate, rep.Total)
		if rep.Name == "ingest-delivery" {
			deliveryBefore, deliveryAfter = before[i].BurnRate, rep.BurnRate
		}
	}
	if deliveryAfter <= deliveryBefore {
		return nil, fmt.Errorf("E20: chaos did not move the delivery burn rate (%.3f → %.3f)", deliveryBefore, deliveryAfter)
	}

	// Exemplars: the ingest histogram's worst-bucket exemplar must resolve to
	// a retained trace — the /metrics → /api/trace/{id} hop.
	var exemplar string
	for _, p := range inf.Telemetry.Snapshot() {
		if p.Name == "cityinfra_pipeline_ingest_seconds" {
			exemplar = p.ExemplarTrace
		}
	}
	if exemplar == "" {
		return nil, fmt.Errorf("E20: ingest histogram retained no exemplar")
	}
	if _, err := inf.Tracer.Trace(exemplar); err != nil {
		return nil, fmt.Errorf("E20: exemplar trace %s unresolvable: %w", exemplar, err)
	}

	// Event log: the chaos arm's quarantines must carry trace ids.
	traced := 0
	for _, ev := range inf.Events.Events(0) {
		if telemetry.ComponentRoot(ev.Component) == telemetry.CompDeadLetter && ev.TraceID != "" {
			traced++
		}
	}
	if traced == 0 {
		return nil, fmt.Errorf("E20: no dead-letter events carried a trace id")
	}

	return &Result{
		ID: "E20", Title: "traced chaos sweep — cross-tier propagation, exemplars, SLO burn",
		Tables: []*viz.Table{attribution, slo},
		Notes: []string{
			fmt.Sprintf("one trace id per frame spans edge→fog→broker→server→cloud; every baseline breakdown sums exactly to its root duration (%d traces)", len(base.TraceIDs)),
			fmt.Sprintf("chaos arm (%d poisoned records, 15%% fault rate) moved the delivery burn rate %.3f → %.3f; %d dead-letter events carry trace ids", poisoned, deliveryBefore, deliveryAfter, traced),
			"the ingest histogram's worst-bucket exemplar resolves to a retained trace",
		},
	}, nil
}
