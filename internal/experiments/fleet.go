package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// e26Rule is the per-camera delivery alert the fleet layer adds.
const e26Rule = "camera-delivery-rate"

// e26FaultTicks / e26RecoveryTicks bound the chaos timeline: detection must
// land within 3 fault ticks (the same budget as E21/E23/E25), and recovery
// gets enough clean ticks for the 15 s rate windows to drain and the
// incident to resolve.
const (
	e26WarmupTicks   = 4
	e26FaultTicks    = 4
	e26RecoveryTicks = 8
	e26DetectBudget  = 3
)

// e26Config is the paper-scale deployment the localization arm runs: the
// full 220-camera network, with the social layer shrunk (it plays no part in
// the frame path) so a 20-seed sweep stays cheap.
func e26Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Gang.Members = 120
	cfg.Gang.Groups = 10
	return cfg
}

// e26Frames builds one frame per camera for a tick. Confidence is a pure
// function of camera index so the offload mix is identical across runs:
// every 8th camera sits below the 0.5 gate and offloads its feature map.
func e26Frames(inf *core.Infrastructure, seq int) []core.FrameEvent {
	out := make([]core.FrameEvent, 0, len(inf.Cameras))
	for i, cam := range inf.Cameras {
		conf := 0.9
		if i%8 == 0 {
			conf = 0.3
		}
		out = append(out, core.FrameEvent{
			CameraID: cam.ID, Seq: seq, Class: "vehicle", Confidence: conf,
			RawBytes: 1 << 10, FeatureBytes: 256, Priority: 1,
		})
	}
	return out
}

// e26Outcome is what the timeline hands the result tables. The target row's
// e2e p99 is wall-clock and is never printed.
type e26Outcome struct {
	target      string
	detectTicks int
	timeline    *viz.Table
	summary     core.FleetSummary
	targetRow   core.CameraStatus
	evidence    []string
	frames      int
}

// e26Localize runs the full warmup → targeted blackout → recovery timeline
// on one seed.
func e26Localize(seed int64) (*e26Outcome, error) {
	cfg := e26Config()
	inf, err := core.New(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	// The adaptive controller would shed and migrate in response to the
	// blackout, changing the frame schedule mid-experiment; this experiment
	// isolates the observability claim, E24 owns the mitigation one.
	inf.Control.Disable()

	out := &e26Outcome{timeline: viz.NewTable("fleet timeline — one 5 s scrape tick per row",
		"tick", "phase", e26Rule, "top burning", "burn", "undelivered", "series/family max")}
	tickNo, seq := 0, 0
	tick := func(phase string) error {
		tickNo++
		seq++
		if _, err := inf.IngestFrames(e26Frames(inf, seq), ""); err != nil {
			return err
		}
		out.frames += len(inf.Cameras)
		inf.MonitorTick()
		sum := inf.Fleet.Summary()
		widest := 0
		for _, n := range sum.SeriesPerFamily {
			if n > widest {
				widest = n
			}
		}
		topCam, burnCell, undCell := "-", "-", "-"
		if hot := inf.Fleet.TopBurning(1); len(hot) > 0 {
			topCam = hot[0].Camera
			burnCell = fmt.Sprintf("%.0f", hot[0].Burn)
			undCell = fmt.Sprintf("%d", hot[0].Undelivered)
		}
		out.timeline.AddRow(tickNo, phase, e21RuleState(inf, e26Rule).State, topCam, burnCell, undCell, widest)
		return nil
	}

	// ---- Warmup: the whole fleet reports, nothing burns. ----
	for i := 0; i < e26WarmupTicks; i++ {
		if err := tick("warmup"); err != nil {
			return nil, err
		}
	}
	report := inf.Fleet.Report()
	if len(report) != len(inf.Cameras) {
		return nil, fmt.Errorf("E26: fleet tracks %d cameras, network has %d", len(report), len(inf.Cameras))
	}
	var ingested uint64
	for _, cs := range report {
		ingested += cs.Ingested
		if cs.Undelivered != 0 {
			return nil, fmt.Errorf("E26: camera %s undelivered %d during clean warmup", cs.Camera, cs.Undelivered)
		}
	}
	if want := uint64(out.frames); ingested != want {
		return nil, fmt.Errorf("E26: Σ ingested over fleet = %d, want %d — exactness lost in rollup", ingested, want)
	}
	if st := e21RuleState(inf, e26Rule); st.State != tsdb.StateInactive || st.FiredCount != 0 {
		return nil, fmt.Errorf("E26: %s fired during clean warmup (state %q)", e26Rule, st.State)
	}

	// ---- Targeted fault: black out ONE camera's broker uplink. ----
	// TargetKeys scopes the blackout to the one camera id, so 219 uplinks
	// stay healthy while every produce for the target fails.
	out.target = inf.Cameras[17].ID
	inf.EnableChaos(faults.NewInjector(faults.Config{
		Seed: seed, BlackoutEvery: 1, BlackoutLen: 1,
		TargetOps: []string{"bus.produce"}, TargetKeys: []string{out.target},
	}))
	for i := 1; i <= e26FaultTicks; i++ {
		if err := tick("fault"); err != nil {
			return nil, err
		}
		if out.detectTicks == 0 && e21RuleState(inf, e26Rule).State == tsdb.StateFiring {
			out.detectTicks = i
		}
	}
	if out.detectTicks == 0 || out.detectTicks > e26DetectBudget {
		return nil, fmt.Errorf("E26: %s detect ticks = %d, want 1..%d (state %q)",
			e26Rule, out.detectTicks, e26DetectBudget, e21RuleState(inf, e26Rule).State)
	}

	// Localization: the fleet table names exactly the blacked-out camera.
	hot := inf.Fleet.TopBurning(3)
	if len(hot) == 0 || hot[0].Camera != out.target {
		return nil, fmt.Errorf("E26: top burning = %v, want %s", hot, out.target)
	}
	if hot[0].Burn <= 1 {
		return nil, fmt.Errorf("E26: target burn = %v, want >> 1 under a full uplink blackout", hot[0].Burn)
	}
	for _, cs := range inf.Fleet.Report() {
		if cs.Camera != out.target && cs.Undelivered != 0 {
			return nil, fmt.Errorf("E26: healthy camera %s shows %d undelivered — fault leaked past the key filter",
				cs.Camera, cs.Undelivered)
		}
	}

	// The correlation engine's incident carries the per-camera evidence: the
	// broker suspect names the one camera the partition is actually hurting.
	incs := inf.Incidents.Incidents(1)
	if len(incs) == 0 || incs[0].State != "open" {
		return nil, fmt.Errorf("E26: no open incident after %d fault ticks", e26FaultTicks)
	}
	if len(incs[0].Suspects) == 0 || incs[0].Suspects[0].Component != telemetry.CompBroker {
		return nil, fmt.Errorf("E26: top suspect = %v, want %s", incs[0].Suspects, telemetry.CompBroker)
	}
	out.evidence = incs[0].Suspects[0].Evidence
	if len(out.evidence) == 0 || !strings.Contains(out.evidence[0], out.target) {
		return nil, fmt.Errorf("E26: broker suspect evidence %q does not name camera %s", out.evidence, out.target)
	}

	// ---- Recovery: the blackout lifts; burn decays, alert resolves. ----
	inf.DisableChaos()
	for i := 0; i < e26RecoveryTicks; i++ {
		if err := tick("recovery"); err != nil {
			return nil, err
		}
		if e21RuleState(inf, e26Rule).State == tsdb.StateInactive && inf.Incidents.OpenCount() == 0 {
			break
		}
	}
	if st := e21RuleState(inf, e26Rule); st.State != tsdb.StateInactive || st.FiredCount == 0 {
		return nil, fmt.Errorf("E26: %s did not resolve after recovery (state %q, fired %d)", e26Rule, st.State, st.FiredCount)
	}
	if n := inf.Incidents.OpenCount(); n != 0 {
		return nil, fmt.Errorf("E26: %d incidents still open after recovery", n)
	}

	// ---- Bounded cardinality, exact accounting. ----
	out.summary = inf.Fleet.Summary()
	for fam, n := range out.summary.SeriesPerFamily {
		if n > out.summary.MaxSeries+1 {
			return nil, fmt.Errorf("E26: family %s holds %d series for %d cameras, budget K+1 = %d",
				fam, n, out.summary.Cameras, out.summary.MaxSeries+1)
		}
	}
	if out.summary.RolledUpTotal == 0 {
		return nil, fmt.Errorf("E26: %d cameras over a top-%d budget rolled up nothing — the guard is not engaging",
			out.summary.Cameras, out.summary.MaxSeries)
	}
	final := inf.Fleet.Report()
	ingested = 0
	var undelivered uint64
	for _, cs := range final {
		ingested += cs.Ingested
		undelivered += cs.Undelivered
		if cs.Camera == out.target {
			out.targetRow = cs
		}
	}
	if want := uint64(out.frames); ingested != want {
		return nil, fmt.Errorf("E26: Σ ingested = %d, want %d after rollup", ingested, want)
	}
	if undelivered != out.targetRow.Undelivered {
		return nil, fmt.Errorf("E26: fleet undelivered %d != target's %d — the fault was not localized",
			undelivered, out.targetRow.Undelivered)
	}

	return out, nil
}

// E26FleetObservability proves the per-camera dimensional layer end to end.
// Localization: with 220 cameras streaming, a broker blackout targeted at
// ONE camera's uplink must fire the camera-delivery-rate alert within 3
// scrape ticks, rank exactly that camera at the top of the fleet burn table
// with zero collateral on the other 219, and surface it in the incident's
// broker-suspect evidence — then resolve cleanly. Cardinality: every vec
// family stays within K+1 registry series for the whole 220-camera run while
// Σ per-camera counts remain exact. What the per-camera layer costs on the
// frame path is measured from outside the program (`go run ./benchmark`:
// frames-sweep cpu_us_per_item, core.fleet_tick_us under -trace).
func E26FleetObservability(rng *rand.Rand) (*Result, error) {
	loc, err := e26Localize(rng.Int63())
	if err != nil {
		return nil, err
	}

	localize := viz.NewTable("targeted-fault localization", "metric", "value")
	localize.AddRow("fleet width", fmt.Sprintf("%d cameras", loc.summary.Cameras))
	localize.AddRow("blacked-out uplink", loc.target)
	localize.AddRow("detection ticks (onset → firing)", fmt.Sprintf("%d (budget <= %d)", loc.detectTicks, e26DetectBudget))
	localize.AddRow("target undelivered / ingested", fmt.Sprintf("%d / %d", loc.targetRow.Undelivered, loc.targetRow.Ingested))
	localize.AddRow("peak burn", fmt.Sprintf("%.0f× budget", loc.targetRow.Burn))
	localize.AddRow("collateral undelivered (other 219)", 0)
	localize.AddRow("incident evidence", strings.Join(loc.evidence, "; "))

	cardinality := viz.NewTable("bounded cardinality — 220 cameras, top-K registry",
		"family", "series", "budget (K+1)")
	for _, fam := range sortedKeys(loc.summary.SeriesPerFamily) {
		cardinality.AddRow(fam, loc.summary.SeriesPerFamily[fam], loc.summary.MaxSeries+1)
	}
	cardinality.AddRow("children rolled up (total)", loc.summary.RolledUpTotal, "-")

	return &Result{
		ID: "E26", Title: "fleet observability — per-camera labels, targeted-fault localization, bounded cardinality",
		Tables: []*viz.Table{loc.timeline, localize, cardinality},
		Notes: []string{
			fmt.Sprintf("a broker blackout on ONE of %d camera uplinks fired %s in %d tick(s), topped the fleet burn table with zero collateral undelivered on the other %d cameras, and the incident's broker suspect carried %q",
				loc.summary.Cameras, e26Rule, loc.detectTicks, loc.summary.Cameras-1, loc.evidence[0]),
			fmt.Sprintf("every per-camera family stayed within %d registry series (top-%d + rollup) for the whole %d-camera run while Σ per-camera counts remained exact — %d tail children were folded into {camera=\"~other\"}",
				loc.summary.MaxSeries+1, loc.summary.MaxSeries, loc.summary.Cameras, loc.summary.RolledUpTotal),
		},
	}, nil
}
