package core

import (
	"sort"

	"repro/internal/control"
	"repro/internal/telemetry"
)

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
		Eval: func(expr string) (float64, bool) {
			v, err := inf.TSDB.Eval(expr, inf.Clock.Now())
			if err != nil {
				return 0, false
			}
			return v.Value, true
		},
	}

	var watch []string
	for name := range actionableRules() {
		watch = append(watch, name)
	}
	sort.Strings(watch)
	inf.Control = control.NewController(inf.Knobs, watch, sig, inf.Events)

	r := inf.Telemetry
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
