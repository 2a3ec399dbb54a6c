package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// E21MetricsMonitor drives the monitoring loop end to end on the simulated
// clock: scrape ticks feed the embedded time-series store while tweets flow
// through the pipeline, a chaos window with poisoned records walks the
// delivery-rate rule inactive → pending → firing within three ticks, and
// draining the rate window resolves it. Alongside the alert lifecycle it
// proves the query layer against ground truth: rate() over the collected
// counter must match the registry's own per-tick deltas to float round-off,
// the firing event must carry a resolvable exemplar trace, and the exported
// alert gauges must track the engine state.
func E21MetricsMonitor(rng *rand.Rand) (*Result, error) {
	seed := rng.Int63()
	const (
		ruleName   = "ingest-delivery-rate"
		undelivSer = "cityinfra_pipeline_undelivered_total"
		rateExpr   = "rate(" + undelivSer + "[15s])"
		checkExpr  = "rate(cityinfra_pipeline_collected_total[15s])"
	)
	timeline := viz.NewTable("monitor timeline — one 5 s scrape tick per row",
		"tick", "phase", "undelivered", rateExpr, "rule state", "firing gauge")

	type obs struct {
		atNs      int64
		collected float64
	}
	var (
		history                   []obs
		got, want                 float64
		detectTicks, resolveTicks int
	)
	tweets := newTweetSource(seed)
	inf, err := run(scenario{
		cfg: chaosConfig(), controller: true,
		phases: []phase{
			// Clean traffic: every rule must stay inactive.
			{"baseline", 6, nil},
			// Poisoned records (which always dead-letter) plus injected faults
			// on every seam. The delivery-rate rule must walk pending → firing
			// within three scrape ticks of the first bad scrape; one more
			// breaching tick then lets the next scrape record the firing state
			// into the exported gauges.
			{"chaos", 4, &faults.Config{Seed: seed, ErrorRate: 0.15, BurstLen: 2}},
			// Clean traffic drains the rate window: the rule must resolve.
			{"recovery", 6, nil},
		},
		load: func(t tick) error {
			for i := 0; t.phase.faults != nil && i < 3; i++ {
				if _, _, err := t.inf.Broker.Produce("tweets", "poison", []byte("{malformed")); err != nil {
					return err
				}
			}
			batch, err := tweets.batch(t.inf, 150)
			if err != nil {
				return err
			}
			_, err = t.inf.IngestTweets(batch)
			return err
		},
		observe: func(t tick) (bool, error) {
			inf := t.inf
			history = append(history, obs{
				atNs:      inf.TSDB.Now().UnixNano(),
				collected: regValue(inf, "cityinfra_pipeline_collected_total"),
			})
			rateCell := "-"
			if v, err := inf.TSDB.Eval(rateExpr, inf.TSDB.Now()); err == nil {
				rateCell = fmt.Sprintf("%.4f", v.Value)
			}
			firingCell := "-"
			if s, err := inf.TSDB.Latest("cityinfra_tsdb_alerts_firing"); err == nil {
				firingCell = fmt.Sprintf("%.0f", s.Value)
			}
			state := ruleState(inf, ruleName).State
			timeline.AddRow(t.n, t.phase.name, regValue(inf, undelivSer), rateCell, state, firingCell)

			switch t.phase.name {
			case "baseline":
				if !t.last() {
					return false, nil
				}
				if firing := inf.Alerts.Firing(); len(firing) != 0 {
					return false, fmt.Errorf("E21: clean baseline fired %v", firing)
				}
				// Query-consistency check: rate() over the collected counter
				// must equal the delta computed from independently recorded
				// registry snapshots.
				v, err := inf.TSDB.Eval(checkExpr, inf.TSDB.Now())
				if err != nil {
					return false, fmt.Errorf("E21: %s: %w", checkExpr, err)
				}
				first := history[len(history)-4] // 15 s window at 5 s ticks spans 4 samples
				last := history[len(history)-1]
				got = v.Value
				want = (last.collected - first.collected) / (float64(last.atNs-first.atNs) / 1e9)
				if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, want) {
					return false, fmt.Errorf("E21: %s = %v, registry deltas give %v (diff %g)", checkExpr, got, want, diff)
				}
			case "chaos":
				if detectTicks == 0 {
					if state == tsdb.StateFiring {
						detectTicks = t.i
					} else if t.i == 3 {
						return false, fmt.Errorf("E21: %s did not fire within 3 chaos ticks (state %q)", ruleName, state)
					}
					return false, nil
				}
				if s, err := inf.TSDB.Latest("cityinfra_tsdb_alerts_firing"); err != nil || s.Value < 1 {
					return false, fmt.Errorf("E21: firing gauge = %v, %v; want >= 1 while firing", s.Value, err)
				}
				if s, err := inf.TSDB.Latest(`cityinfra_tsdb_alert_state{rule="` + ruleName + `"}`); err != nil || s.Value != 2 {
					return false, fmt.Errorf("E21: per-rule state gauge = %v, %v; want 2 (firing)", s.Value, err)
				}
				// The firing event must be trace-correlated: its exemplar comes
				// from the ingest latency histogram and must resolve through
				// the tracer.
				var firingTrace string
				for _, ev := range inf.Events.Events(0) {
					if ev.Component == "tsdb/alerts" && strings.Contains(ev.Message, ruleName) &&
						strings.Contains(ev.Message, "firing") {
						firingTrace = ev.TraceID
						break
					}
				}
				if firingTrace == "" {
					return false, fmt.Errorf("E21: firing event missing or carried no exemplar trace")
				}
				if _, err := inf.Tracer.Trace(firingTrace); err != nil {
					return false, fmt.Errorf("E21: firing exemplar %s unresolvable: %w", firingTrace, err)
				}
				return true, nil
			case "recovery":
				if state == tsdb.StateInactive {
					resolveTicks = t.i
					return true, nil
				}
			}
			return false, nil
		},
	}, seed)
	if err != nil {
		return nil, err
	}
	if resolveTicks == 0 {
		return nil, fmt.Errorf("E21: %s did not resolve within 6 clean ticks", ruleName)
	}
	resolved := false
	for _, ev := range inf.Events.Events(0) {
		if ev.Component == "tsdb/alerts" && strings.Contains(ev.Message, ruleName) &&
			strings.Contains(ev.Message, "resolved") {
			resolved = true
			break
		}
	}
	if !resolved {
		return nil, fmt.Errorf("E21: no resolved event for %s in the event log", ruleName)
	}

	consistency := viz.NewTable("windowed query vs registry ground truth",
		"expr", "tsdb eval", "from registry deltas", "abs diff")
	consistency.AddRow(checkExpr, fmt.Sprintf("%.6f", got),
		fmt.Sprintf("%.6f", want), fmt.Sprintf("%.3g", math.Abs(got-want)))

	detectLatency := time.Duration(detectTicks) * inf.ScrapeInterval
	st := ruleState(inf, ruleName)
	summary := viz.NewTable("alert lifecycle", "metric", "value")
	summary.AddRow("scrape interval", inf.ScrapeInterval)
	summary.AddRow("scrape ticks total", inf.TSDB.Scrapes())
	summary.AddRow("detection ticks (chaos start → firing)", detectTicks)
	summary.AddRow("detection latency (simulated)", detectLatency)
	summary.AddRow("resolve ticks (chaos end → inactive)", resolveTicks)
	summary.AddRow("resolve latency (simulated)", time.Duration(resolveTicks)*inf.ScrapeInterval)
	summary.AddRow("rule fired count", st.FiredCount)
	summary.AddRow("rule transitions", st.Transitions)
	summary.AddRow("firing exemplar trace", "resolved")

	return &Result{
		ID: "E21", Title: "metrics monitor — TSDB scrape loop, windowed queries, alert lifecycle",
		Tables: []*viz.Table{timeline, consistency, summary},
		Notes: []string{
			fmt.Sprintf("the delivery-rate rule fired %d ticks (%s simulated) after the first poisoned scrape — within the 3-tick budget — and resolved %d ticks after chaos ended, once the 15 s rate window drained",
				detectTicks, detectLatency, resolveTicks),
			fmt.Sprintf("%s agreed with registry-snapshot deltas to %.3g — the query layer reads the same truth the exposition endpoint serves", checkExpr, math.Abs(got-want)),
			"the firing event carries the ingest histogram's exemplar, so an operator can jump alert → trace without leaving the event log",
			"everything runs on the simulated clock: scrapes, windows, and backoff advance deterministically and the experiment never sleeps",
		},
	}, nil
}
