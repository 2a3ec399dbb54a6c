package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// e23Rule is the default alert that watches the hottest region's windowed
// self time for share shifts.
const e23Rule = "profile-hot-region-anomaly"

// e23Stat indexes a profiler snapshot by region name.
func e23Stat(inf *core.Infrastructure) map[string]profile.RegionStat {
	out := map[string]profile.RegionStat{}
	for _, st := range inf.Profiler.Snapshot() {
		out[st.Region] = st
	}
	return out
}

// E23Profile proves the continuous profiling layer end to end in two arms.
// Attribution: the ingest tree must telescope exactly (Σ self over the tree =
// the root's cumulative — an identity of the subtraction rule, so any drift is
// a wiring bug). Localization: a fault-injected CPU burn on the docstore seam
// must surface as the ingest/store region dominating the hot ranking, carry
// >= 80% of the injected burn time, and walk the hot-region anomaly alert to
// firing within 3 scrape ticks. What the profiler costs and how much of the
// stopwatch it covers are measured from outside the program
// (`go run ./benchmark -trace`: profile.ingest_coverage_share).
func E23Profile(rng *rand.Rand) (*Result, error) {
	seed := rng.Int63()

	// ---- Arm 1: exact tree telescoping. ----
	inf, err := run(scenario{cfg: chaosConfig(), controller: true}, seed)
	if err != nil {
		return nil, err
	}
	tweets := newTweetSource(seed)
	for i := 0; i < 3; i++ {
		batch, err := tweets.batch(inf, 400)
		if err != nil {
			return nil, err
		}
		if _, err := inf.IngestTweets(batch); err != nil {
			return nil, err
		}
	}
	stats := e23Stat(inf)
	root := stats["ingest"]
	if root.Calls != 3 {
		return nil, fmt.Errorf("E23: ingest region entered %d times over 3 batches", root.Calls)
	}
	var treeSelf float64
	for name, st := range stats {
		if name == "ingest" || len(name) > 7 && name[:7] == "ingest/" {
			treeSelf += st.SelfSeconds
		}
	}
	telescope := treeSelf - root.CumSeconds
	if telescope > 1e-6*root.CumSeconds || telescope < -1e-6*root.CumSeconds {
		return nil, fmt.Errorf("E23: ingest tree Σself = %.9fs vs root cum %.9fs — telescoping broken", treeSelf, root.CumSeconds)
	}
	attribution := viz.NewTable("attribution — the ingest region tree telescopes", "metric", "value")
	attribution.AddRow("ingest region cumulative", fmt.Sprintf("%.3f ms", root.CumSeconds*1e3))
	attribution.AddRow("ingest tree Σ self", fmt.Sprintf("%.3f ms", treeSelf*1e3))
	attribution.AddRow("telescoping residual", fmt.Sprintf("%.3g ms", telescope*1e3))

	// ---- Arm 2: fault-injected CPU burn localizes to the right region. ----
	timeline := viz.NewTable("burn timeline — one 5 s scrape tick per row",
		"tick", "phase", "hot region", "hot self", "share", e23Rule)
	burnTweets := newTweetSource(seed + 4)
	var (
		detectTicks        int
		hotAtDetect        profile.HotRegion
		before, burnWindow float64
	)
	inf3, err := run(scenario{
		cfg: chaosConfig(), controller: true,
		phases: []phase{
			// One tick past the rule's EWMA warmup so the baseline is settled
			// before the burn starts.
			{"warmup", 9, nil},
			// Burn 2 ms of real CPU inside every docstore insert — the
			// injector seam spins wall-clock, so the profiler sees it exactly
			// where it happens: inside the ingest/store drain loop.
			{"burn", 3, &faults.Config{Seed: seed, BurnOp: "store.insert", BurnMs: 2}},
		},
		load: func(t tick) error {
			if t.inf.Injector != nil {
				before = t.inf.Injector.Totals().BurnMs
			}
			batch, err := burnTweets.batch(t.inf, 40)
			if err != nil {
				return err
			}
			_, err = t.inf.IngestTweets(batch)
			return err
		},
		observe: func(t tick) (bool, error) {
			inf := t.inf
			hotRegion, hotCell, shareCell := "-", "-", "-"
			if hot := inf.Profiler.HotRegions(1); len(hot) > 0 {
				hotRegion = hot[0].Region
				hotCell = fmt.Sprintf("%.2f ms", hot[0].SelfSeconds*1e3)
				shareCell = fmt.Sprintf("%.0f%%", hot[0].Share*100)
			}
			st := ruleState(inf, e23Rule)
			timeline.AddRow(t.n, t.phase.name, hotRegion, hotCell, shareCell, st.State)
			if t.phase.faults == nil {
				if t.last() && (st.State != tsdb.StateInactive || st.FiredCount != 0) {
					return false, fmt.Errorf("E23: %s fired during clean warmup (state %q, fired %d)", e23Rule, st.State, st.FiredCount)
				}
				return false, nil
			}
			burnWindow = (inf.Injector.Totals().BurnMs - before) / 1e3
			hot := inf.Profiler.HotRegions(1)
			if len(hot) == 0 || hot[0].Region != "ingest/store" {
				return false, fmt.Errorf("E23: burn tick %d hot region = %v, want ingest/store", t.i, hot)
			}
			hotAtDetect = hot[0]
			if st.State == tsdb.StateFiring {
				detectTicks = t.i
				return true, nil
			}
			return false, nil
		},
	}, seed+4)
	if err != nil {
		return nil, err
	}
	if detectTicks == 0 {
		return nil, fmt.Errorf("E23: %s did not fire within 3 burn ticks (state %q)",
			e23Rule, ruleState(inf3, e23Rule).State)
	}
	if tot := inf3.Injector.Totals(); tot.Burns == 0 {
		return nil, fmt.Errorf("E23: injector recorded no burns")
	}
	if hotAtDetect.SelfSeconds < 0.8*burnWindow {
		return nil, fmt.Errorf("E23: ingest/store window self %.4fs captured < 80%% of the %.4fs burned that tick",
			hotAtDetect.SelfSeconds, burnWindow)
	}
	if ws := inf3.Profiler.WindowSelfSeconds("ingest/store"); ws != hotAtDetect.SelfSeconds {
		return nil, fmt.Errorf("E23: WindowSelfSeconds(ingest/store) = %v, hot ranking says %v", ws, hotAtDetect.SelfSeconds)
	}

	localize := viz.NewTable("burn localization", "metric", "value")
	localize.AddRow("burn seam / per-op spin", "store.insert / 2 ms")
	localize.AddRow("injected burns (total)", inf3.Injector.Totals().Burns)
	localize.AddRow("burned in detection window", fmt.Sprintf("%.1f ms", burnWindow*1e3))
	localize.AddRow("ingest/store window self", fmt.Sprintf("%.1f ms (>= 80%% of burn)", hotAtDetect.SelfSeconds*1e3))
	localize.AddRow("hot-region share at detection", fmt.Sprintf("%.0f%%", hotAtDetect.Share*100))
	localize.AddRow("detection ticks (burn start → firing)", detectTicks)
	localize.AddRow("detection latency (simulated)", time.Duration(detectTicks)*inf3.ScrapeInterval)

	return &Result{
		ID: "E23", Title: "profiling — hot-region attribution, burn localization",
		Tables: []*viz.Table{attribution, timeline, localize},
		Notes: []string{
			"the ingest tree telescopes exactly — Σ self equals the root's cumulative to float round-off",
			fmt.Sprintf("a 2 ms CPU burn injected on the docstore seam surfaced as ingest/store holding %.0f%% of the hot window and walked %s to firing in %d tick(s) — region attribution turns 'the pipeline got slow' into 'the store loop got slow'", hotAtDetect.Share*100, e23Rule, detectTicks),
			"the burn spins wall clock (unlike the simulated latency faults), so the profiler and the alert see exactly what a real hot loop would produce",
		},
	}, nil
}
