package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// e26Rule is the per-camera delivery alert the fleet layer adds.
const e26Rule = "camera-delivery-rate"

// e26DetectBudget is the detection budget E21/E23/E25 share: the rule must
// fire within 3 fault ticks.
const e26DetectBudget = 3

// e26Target is the one camera whose broker uplink the fault blacks out.
const e26Target = "dotd-017"

// e26Config is the paper-scale deployment the localization arm runs: the
// full 220-camera network, with the social layer shrunk (it plays no part in
// the frame path) so a 20-seed sweep stays cheap.
func e26Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Gang.Members = 120
	cfg.Gang.Groups = 10
	return cfg
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
	seed := rng.Int63()
	timeline := viz.NewTable("fleet timeline — one 5 s scrape tick per row",
		"tick", "phase", e26Rule, "top burning", "burn", "undelivered", "series/family max")
	// TargetKeys scopes the blackout to the one camera id, so 219 uplinks
	// stay healthy while every produce for the target fails.
	blackout := partition(seed, "bus.produce")
	blackout.TargetKeys = []string{e26Target}
	frameRng := rand.New(rand.NewSource(seed + 1))
	var (
		frames, detectTicks int
		evidence            []string
		peakBurn            float64 // the target's highest burn on any tick
	)
	inf, err := run(scenario{
		// The adaptive controller would shed and migrate in response to the
		// blackout, changing the frame schedule mid-experiment; this
		// experiment isolates the observability claim, E24 owns the
		// mitigation one.
		cfg: e26Config(), controller: false,
		phases: []phase{
			// The whole fleet reports, nothing burns.
			{"warmup", 4, nil},
			{"fault", 4, blackout},
			// Enough clean ticks for the 15 s rate windows to drain and the
			// incident to resolve.
			{"recovery", 8, nil},
		},
		load: func(t tick) error {
			if _, err := t.inf.IngestFrames(core.SyntheticFrames(t.inf.Cameras, t.n, 1, frameRng), ""); err != nil {
				return err
			}
			frames += len(t.inf.Cameras)
			return nil
		},
		observe: func(t tick) (bool, error) {
			inf := t.inf
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
			st := ruleState(inf, e26Rule)
			timeline.AddRow(t.n, t.phase.name, st.State, topCam, burnCell, undCell, widest)
			for _, cs := range inf.Fleet.Report() {
				if cs.Camera == e26Target {
					peakBurn = max(peakBurn, cs.Burn)
				}
			}

			switch {
			case t.phase.name == "warmup" && t.last():
				report := inf.Fleet.Report()
				if len(report) != len(inf.Cameras) {
					return false, fmt.Errorf("E26: fleet tracks %d cameras, network has %d", len(report), len(inf.Cameras))
				}
				var ingested uint64
				for _, cs := range report {
					ingested += cs.Ingested
					if cs.Undelivered != 0 {
						return false, fmt.Errorf("E26: camera %s undelivered %d during clean warmup", cs.Camera, cs.Undelivered)
					}
				}
				if want := uint64(frames); ingested != want {
					return false, fmt.Errorf("E26: Σ ingested over fleet = %d, want %d — exactness lost in rollup", ingested, want)
				}
				if st.State != tsdb.StateInactive || st.FiredCount != 0 {
					return false, fmt.Errorf("E26: %s fired during clean warmup (state %q)", e26Rule, st.State)
				}
			case t.phase.faults != nil:
				if detectTicks == 0 && st.State == tsdb.StateFiring {
					detectTicks = t.i
				}
				if !t.last() {
					break
				}
				if detectTicks == 0 || detectTicks > e26DetectBudget {
					return false, fmt.Errorf("E26: %s detect ticks = %d, want 1..%d (state %q)",
						e26Rule, detectTicks, e26DetectBudget, st.State)
				}
				// Localization: the fleet table names exactly the
				// blacked-out camera.
				hot := inf.Fleet.TopBurning(3)
				if len(hot) == 0 || hot[0].Camera != e26Target {
					return false, fmt.Errorf("E26: top burning = %v, want %s", hot, e26Target)
				}
				if hot[0].Burn <= 1 {
					return false, fmt.Errorf("E26: target burn = %v, want >> 1 under a full uplink blackout", hot[0].Burn)
				}
				for _, cs := range inf.Fleet.Report() {
					if cs.Camera != e26Target && cs.Undelivered != 0 {
						return false, fmt.Errorf("E26: healthy camera %s shows %d undelivered — fault leaked past the key filter",
							cs.Camera, cs.Undelivered)
					}
				}
				// The correlation engine's incident carries the per-camera
				// evidence: the broker suspect names the one camera the
				// partition is actually hurting.
				incs := inf.Incidents.Incidents(1)
				if len(incs) == 0 || incs[0].State != "open" {
					return false, fmt.Errorf("E26: no open incident after %d fault ticks", t.i)
				}
				if len(incs[0].Suspects) == 0 || incs[0].Suspects[0].Component != telemetry.CompBroker {
					return false, fmt.Errorf("E26: top suspect = %v, want %s", incs[0].Suspects, telemetry.CompBroker)
				}
				evidence = incs[0].Suspects[0].Evidence
				if len(evidence) == 0 || !strings.Contains(evidence[0], e26Target) {
					return false, fmt.Errorf("E26: broker suspect evidence %q does not name camera %s", evidence, e26Target)
				}
			case t.phase.name == "recovery":
				// The blackout lifts; burn decays, alert resolves.
				return st.State == tsdb.StateInactive && inf.Incidents.OpenCount() == 0, nil
			}
			return false, nil
		},
	}, seed)
	if err != nil {
		return nil, err
	}
	if st := ruleState(inf, e26Rule); st.State != tsdb.StateInactive || st.FiredCount == 0 {
		return nil, fmt.Errorf("E26: %s did not resolve after recovery (state %q, fired %d)", e26Rule, st.State, st.FiredCount)
	}
	if n := inf.Incidents.OpenCount(); n != 0 {
		return nil, fmt.Errorf("E26: %d incidents still open after recovery", n)
	}

	// ---- Bounded cardinality, exact accounting. ----
	summary := inf.Fleet.Summary()
	for fam, n := range summary.SeriesPerFamily {
		if n > summary.MaxSeries+1 {
			return nil, fmt.Errorf("E26: family %s holds %d series for %d cameras, budget K+1 = %d",
				fam, n, summary.Cameras, summary.MaxSeries+1)
		}
	}
	if summary.RolledUpTotal == 0 {
		return nil, fmt.Errorf("E26: %d cameras over a top-%d budget rolled up nothing — the guard is not engaging",
			summary.Cameras, summary.MaxSeries)
	}
	var target core.CameraStatus
	var ingested, undelivered uint64
	for _, cs := range inf.Fleet.Report() {
		ingested += cs.Ingested
		undelivered += cs.Undelivered
		if cs.Camera == e26Target {
			target = cs
		}
	}
	if want := uint64(frames); ingested != want {
		return nil, fmt.Errorf("E26: Σ ingested = %d, want %d after rollup", ingested, want)
	}
	if undelivered != target.Undelivered {
		return nil, fmt.Errorf("E26: fleet undelivered %d != target's %d — the fault was not localized",
			undelivered, target.Undelivered)
	}

	localize := viz.NewTable("targeted-fault localization", "metric", "value")
	localize.AddRow("fleet width", fmt.Sprintf("%d cameras", summary.Cameras))
	localize.AddRow("blacked-out uplink", e26Target)
	localize.AddRow("detection ticks (onset → firing)", fmt.Sprintf("%d (budget <= %d)", detectTicks, e26DetectBudget))
	localize.AddRow("target undelivered / ingested", fmt.Sprintf("%d / %d", target.Undelivered, target.Ingested))
	localize.AddRow("peak burn", fmt.Sprintf("%.0f× budget", peakBurn))
	localize.AddRow("collateral undelivered (other 219)", 0)
	localize.AddRow("incident evidence", strings.Join(evidence, "; "))

	cardinality := viz.NewTable("bounded cardinality — 220 cameras, top-K registry",
		"family", "series", "budget (K+1)")
	for _, fam := range sortedKeys(summary.SeriesPerFamily) {
		cardinality.AddRow(fam, summary.SeriesPerFamily[fam], summary.MaxSeries+1)
	}
	cardinality.AddRow("children rolled up (total)", summary.RolledUpTotal, "-")

	return &Result{
		ID: "E26", Title: "fleet observability — per-camera labels, targeted-fault localization, bounded cardinality",
		Tables: []*viz.Table{timeline, localize, cardinality},
		Notes: []string{
			fmt.Sprintf("a broker blackout on ONE of %d camera uplinks fired %s in %d tick(s), topped the fleet burn table with zero collateral undelivered on the other %d cameras, and the incident's broker suspect carried %q",
				summary.Cameras, e26Rule, detectTicks, summary.Cameras-1, evidence[0]),
			fmt.Sprintf("every per-camera family stayed within %d registry series (top-%d + rollup) for the whole %d-camera run while Σ per-camera counts remained exact — %d tail children were folded into {camera=\"~other\"}",
				summary.MaxSeries+1, summary.MaxSeries, summary.Cameras, summary.RolledUpTotal),
		},
	}, nil
}
