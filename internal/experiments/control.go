package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/viz"
)

// e24Phases walks the controller through its full mitigation repertoire:
// storage faults that should tighten the offload gate, an uplink partition
// that should migrate inference down-tier, annotation-store faults that
// should shed low-priority streams, then a long clean window in which every
// knob must unwind back to its default. Both arms replay it.
func e24Phases(seed int64) []phase {
	return []phase{
		{"warmup", 5, nil},
		{"hdfs-partition", 7, partition(seed, "hdfs.")},
		{"bus-partition", 7, partition(seed, "bus.")},
		{"hbase-partition", 7, partition(seed, "hbase.")},
		{"recovery", 24, nil},
	}
}

// e24Cameras and e24Sweeps are the fixed per-tick camera load: 3 sweeps of
// the first 8 cameras, 24 frames.
const e24Cameras, e24Sweeps = 8, 3

// e24ArmResult is one arm's accounting over the shared schedule.
type e24ArmResult struct {
	inf          *core.Infrastructure
	totalUndeliv float64
	burnSum      float64 // per-tick ingest-delivery SLO burn, summed — cumulative badness
	collected    int
	stored       int
	shed         int
	offloaded    int
	localExits   int
	phaseUndeliv map[string]float64
	firstAct     map[string]int // phase → ticks until first controller action (0 = none)
	timeline     *viz.Table     // only filled for the controlled arm
}

// e24RunArm replays the shared schedule through a fresh stack. controlled
// selects whether the closed loop is live or held disabled (the static
// baseline the paper's fixed-threshold deployment corresponds to). Both arms
// draw the identical frame workload from a seed+1 rng — the first eight
// cameras — so the early-exit mix is byte-identical across arms.
func e24RunArm(seed int64, controlled bool) (*e24ArmResult, error) {
	const undelivered = "cityinfra_pipeline_undelivered_total"
	arm := &e24ArmResult{
		phaseUndeliv: map[string]float64{},
		firstAct:     map[string]int{},
	}
	if controlled {
		arm.timeline = viz.NewTable("controlled arm — ticks where the loop acted",
			"tick", "phase", "undelivered", "threshold", "tier", "shed", "action")
	}
	frames := rand.New(rand.NewSource(seed + 1))
	var (
		phaseStart    float64
		actionsBefore int64
		first         int
	)
	inf, err := run(scenario{
		cfg: chaosConfig(), controller: controlled, phases: e24Phases(seed),
		load: func(t tick) error {
			if t.i == 1 {
				phaseStart, actionsBefore, first = regValue(t.inf, undelivered), t.inf.Control.TotalActions(), 0
			}
			batch := core.SyntheticFrames(t.inf.Cameras[:e24Cameras], (t.n-1)*e24Sweeps, e24Sweeps, frames)
			st, err := t.inf.IngestFrames(batch, "/warehouse/frames")
			if err != nil {
				return err
			}
			arm.collected += st.Collected
			arm.stored += st.Stored
			arm.shed += st.Shed
			arm.offloaded += st.Offloaded
			arm.localExits += st.LocalExits
			return nil
		},
		observe: func(t tick) (bool, error) {
			inf := t.inf
			for _, rep := range inf.SLOs.Reports() {
				if rep.Name == "ingest-delivery" {
					arm.burnSum += rep.BurnRate
				}
			}
			if first == 0 && inf.Control.TotalActions() > actionsBefore {
				first = t.i
			}
			if arm.timeline != nil {
				if acts := inf.Control.Actions(1); len(acts) == 1 && acts[0].Tick == t.n {
					a := acts[0]
					arm.timeline.AddRow(t.n, t.phase.name, regValue(inf, undelivered),
						fmt.Sprintf("%.2f", inf.Knobs.OffloadThreshold()),
						inf.Knobs.InferenceTier().String(), inf.Knobs.ShedLevel(),
						fmt.Sprintf("%s (%s)", a.Kind, a.Reason))
				}
			}
			if t.last() {
				arm.firstAct[t.phase.name] = first
				arm.phaseUndeliv[t.phase.name] = regValue(inf, undelivered) - phaseStart
			}
			return false, nil
		},
	}, seed)
	if err != nil {
		return nil, err
	}
	arm.inf = inf
	arm.totalUndeliv = regValue(inf, undelivered)
	return arm, nil
}

// E24AdaptiveControl runs the closed-loop controller head to head against a
// static baseline over an identical deterministic fault schedule: the same
// frames, the same partitions, the same clock. The controlled arm must react
// to each induced failure mode within three monitor ticks with the matching
// mitigation — gate tightening under storage faults, fog migration under an
// uplink partition, load shedding when the annotation store dies — must
// unwind every knob during the clean tail, and must land strictly less
// cumulative damage (undelivered records, summed SLO burn) than the
// baseline.
func E24AdaptiveControl(rng *rand.Rand) (*Result, error) {
	seed := rng.Int63()
	baseline, err := e24RunArm(seed, false)
	if err != nil {
		return nil, fmt.Errorf("E24 baseline arm: %w", err)
	}
	controlled, err := e24RunArm(seed, true)
	if err != nil {
		return nil, fmt.Errorf("E24 controlled arm: %w", err)
	}

	// The baseline arm must never act; the controlled arm must stay quiet
	// through the clean warmup.
	if n := baseline.inf.Control.TotalActions(); n != 0 {
		return nil, fmt.Errorf("E24: disabled baseline took %d actions", n)
	}
	if controlled.firstAct["warmup"] != 0 {
		return nil, fmt.Errorf("E24: controller acted during clean warmup (tick %d)",
			controlled.firstAct["warmup"])
	}
	// Every chaos phase must draw a reaction within three monitor ticks.
	phases := e24Phases(seed)
	for _, ph := range phases {
		if ph.faults == nil {
			continue
		}
		f := controlled.firstAct[ph.name]
		if f == 0 || f > 3 {
			return nil, fmt.Errorf("E24: first action in %s at tick %d, want within 3", ph.name, f)
		}
	}
	// The mitigations must match the failure modes.
	ctl := controlled.inf.Control
	if ctl.ActionCount(control.ActionThresholdLower) == 0 {
		return nil, fmt.Errorf("E24: storage partition never tightened the offload gate")
	}
	if ctl.ActionCount(control.ActionMigrateFog) == 0 {
		return nil, fmt.Errorf("E24: uplink partition never migrated inference to fog")
	}
	if ctl.ActionCount(control.ActionShed) == 0 || controlled.shed == 0 {
		return nil, fmt.Errorf("E24: annotation-store partition never shed load (shed=%d)", controlled.shed)
	}
	// The clean tail must fully unwind the knobs.
	k := controlled.inf.Knobs
	if k.OffloadThreshold() != 0.5 || k.InferenceTier() != control.TierServer || k.ShedLevel() != 0 {
		return nil, fmt.Errorf("E24: knobs not restored after recovery: threshold=%.2f tier=%s shed=%d",
			k.OffloadThreshold(), k.InferenceTier(), k.ShedLevel())
	}
	if ctl.Degraded() {
		return nil, fmt.Errorf("E24: controller still degraded after %d clean recovery ticks",
			phases[len(phases)-1].ticks)
	}
	// And the whole point: strictly less cumulative damage than doing nothing.
	if controlled.totalUndeliv >= baseline.totalUndeliv {
		return nil, fmt.Errorf("E24: controlled arm undelivered %.0f >= baseline %.0f",
			controlled.totalUndeliv, baseline.totalUndeliv)
	}
	if controlled.burnSum >= baseline.burnSum {
		return nil, fmt.Errorf("E24: controlled arm burn sum %.2f >= baseline %.2f",
			controlled.burnSum, baseline.burnSum)
	}

	perPhase := viz.NewTable("per-phase undelivered records (identical schedule, same seed)",
		"phase", "ticks", "baseline", "controlled", "first action tick")
	for _, ph := range phases {
		firstCell := "-"
		if f := controlled.firstAct[ph.name]; f > 0 {
			firstCell = fmt.Sprintf("%d", f)
		}
		perPhase.AddRow(ph.name, ph.ticks, baseline.phaseUndeliv[ph.name],
			controlled.phaseUndeliv[ph.name], firstCell)
	}

	totals := viz.NewTable("arm totals", "metric", "baseline (static)", "controlled (closed loop)")
	totals.AddRow("frames offered", baseline.collected+baseline.shed, controlled.collected+controlled.shed)
	totals.AddRow("frames shed (policy)", baseline.shed, controlled.shed)
	totals.AddRow("undelivered (failures)", baseline.totalUndeliv, controlled.totalUndeliv)
	totals.AddRow("stored cells", baseline.stored, controlled.stored)
	totals.AddRow("offloaded / local exits",
		fmt.Sprintf("%d / %d", baseline.offloaded, baseline.localExits),
		fmt.Sprintf("%d / %d", controlled.offloaded, controlled.localExits))
	totals.AddRow("ingest-delivery SLO burn, summed per tick",
		fmt.Sprintf("%.2f", baseline.burnSum), fmt.Sprintf("%.2f", controlled.burnSum))
	totals.AddRow("controller actions", baseline.inf.Control.TotalActions(), controlled.inf.Control.TotalActions())

	improvement := 100 * (1 - controlled.totalUndeliv/baseline.totalUndeliv)
	return &Result{
		ID: "E24", Title: "closed-loop adaptive control vs static baseline under phased partitions",
		Tables: []*viz.Table{perPhase, totals, controlled.timeline},
		Notes: []string{
			fmt.Sprintf("the closed loop cut undelivered records %.0f → %.0f (%.0f%%) over the identical fault schedule, trading %d shed low-priority frames for it",
				baseline.totalUndeliv, controlled.totalUndeliv, improvement, controlled.shed),
			fmt.Sprintf("every induced failure mode drew its matching mitigation within 3 monitor ticks: gate tightening (hdfs, tick %d), fog migration (bus, tick %d), load shedding (hbase, tick %d)",
				controlled.firstAct["hdfs-partition"], controlled.firstAct["bus-partition"], controlled.firstAct["hbase-partition"]),
			"recovery is symmetric: after the faults clear, the healthy streak unwinds shed → tier → threshold one cooldown apart, and the run ends with every knob at its default",
		},
	}, nil
}
