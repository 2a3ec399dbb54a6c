package core

import (
	"repro/internal/control"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// controlWatchRules names the alert rules whose firing counts as degraded
// for the adaptive controller. The controller's own control-* rules are
// deliberately absent: watching them would let a mitigation (shedding,
// migration) keep the system "degraded" forever — a positive feedback loop.
// The two anomaly rules over measured wall time (ingest-p99-anomaly,
// profile-hot-region-anomaly) are also absent: they alert operators, but a
// controller deciding off machine-load noise would not replay — see
// wireControl.
func controlWatchRules() []string {
	return []string{
		"ingest-delivery-rate",
		"breaker-open",
		"hdfs-lost-blocks",
		"broker-under-replicated",
	}
}

// wireControl boots the control layer: the live knob set the frame hot path
// reads, the feedback controller whose signals span the monitoring, SLO,
// and profiling layers, and the cityinfra_control_* metric family. Runs
// after every other layer is wired.
func (inf *Infrastructure) wireControl() {
	inf.Knobs = control.NewKnobs(inf.cfg.OffloadThreshold)

	sig := control.Signals{
		Firing: inf.Alerts.Firing,
		BurnRate: func() float64 {
			return inf.deliverySLO.Report().BurnRate
		},
		BreakerOpen: func() bool {
			return inf.Breaker.State() == retry.Open
		},
		// No signal reads the profiler, the ingest p99 or the
		// ingest-latency-1s SLO: all three are measured wall time, so a
		// decision fed by them would depend on machine load and the same
		// seed would replay different actions. They stay diagnostics (watch
		// pane, /api/profile, /api/slo); the controller decides off
		// deterministic counters, the delivery SLO and breaker/alert state
		// only.
		Eval: func(expr string) (float64, bool) {
			v, err := inf.TSDB.Eval(expr, inf.Clock.Now())
			if err != nil {
				return 0, false
			}
			return v.Value, true
		},
	}

	inf.Control = control.NewController(inf.Knobs, controlWatchRules(), sig, inf.Events)

	r := inf.Telemetry
	inf.framesShed = r.Counter("cityinfra_control_frames_shed_total",
		"frames dropped at admission by the load-shedding floor")
	r.GaugeFunc("cityinfra_control_offload_threshold",
		"live fog early-exit confidence gate",
		inf.Knobs.OffloadThreshold)
	r.GaugeFunc("cityinfra_control_inference_tier",
		"where frame inference runs: 1=server (default), 0=fog-local",
		func() float64 {
			if inf.Knobs.InferenceTier() == control.TierFog {
				return 0
			}
			return 1
		})
	r.GaugeFunc("cityinfra_control_shed_level",
		"priority admission floor (0 admits every stream)",
		func() float64 { return float64(inf.Knobs.ShedLevel()) })
	r.GaugeFunc("cityinfra_control_degraded",
		"controller's last health verdict: 1=degraded",
		func() float64 {
			if inf.Control.Degraded() {
				return 1
			}
			return 0
		})
	for _, kind := range control.ActionKinds() {
		kind := kind
		r.CounterFunc(
			telemetry.FormatName("cityinfra_control_actions_total", telemetry.LabelSet{{Key: "kind", Value: string(kind)}}),
			"controller actions taken, by kind",
			func() float64 { return float64(inf.Control.ActionCount(kind)) })
	}
}
