package core

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// defaultScrapeInterval is how far one MonitorTick advances the simulated
// clock between registry scrapes. The default alert windows below are sized
// in multiples of it.
const defaultScrapeInterval = 5 * time.Second

// DefaultAlertRules is the rule set every Infrastructure boots with:
// a delivery-rate rule (any undelivered record inside the window), two
// hard-state rules (breaker open, HDFS lost blocks), and an EWMA z-score
// anomaly detector on the ingest p99. Windows assume the default 5 s scrape
// interval: 15 s covers three ticks, so a fault burst is detected within
// two ticks of its first scrape and resolves within three ticks of the
// window draining.
func DefaultAlertRules() []tsdb.Rule {
	return []tsdb.Rule{
		{
			Name: "ingest-delivery-rate", Severity: telemetry.LevelError,
			Expr: "rate(cityinfra_pipeline_undelivered_total[15s])",
			Op:   tsdb.CmpGT, Threshold: 0, ForTicks: 1,
			ExemplarFrom: "cityinfra_pipeline_ingest_seconds",
		},
		{
			Name: "breaker-open", Severity: telemetry.LevelError,
			Expr: "cityinfra_breaker_state",
			Op:   tsdb.CmpGT, Threshold: 1.5, // 2 = open
		},
		{
			Name: "hdfs-lost-blocks", Severity: telemetry.LevelError,
			Expr: "cityinfra_hdfs_lost_blocks",
			Op:   tsdb.CmpGT, Threshold: 0,
		},
		{
			// Fleet localization: any camera quarantining frames inside the
			// window. The max() aggregation over the bounded per-camera family
			// keeps the rule single-valued; which camera is burning is read
			// from /api/cameras or the watch fleet pane. Evaluates to "no
			// data" (never breaches) when fleet telemetry is disabled.
			Name: "camera-delivery-rate", Severity: telemetry.LevelError,
			Expr: "max(rate(cityinfra_camera_frames_undelivered_total[15s]))",
			Op:   tsdb.CmpGT, Threshold: 0, ForTicks: 1,
			ExemplarFrom: "cityinfra_pipeline_ingest_seconds",
		},
		{
			Name: "ingest-p99-anomaly", Severity: telemetry.LevelWarn,
			Expr:   "cityinfra_pipeline_ingest_seconds_p99",
			ZScore: 4, WarmupTicks: 8, ForTicks: 1,
		},
		{
			Name: "broker-under-replicated", Severity: telemetry.LevelWarn,
			Expr: "cityinfra_broker_under_replicated_partitions",
			Op:   tsdb.CmpGT, Threshold: 0,
		},
		{
			// A region-share shift: the hottest region's per-tick self time
			// jumps far off its EWMA baseline AND past an absolute floor.
			// AND semantics keep ordinary batch-size wobble (anomalous in
			// sigma terms but milliseconds in absolute terms) from paging.
			// No ForTicks hold-down: the EWMA adapts to a sustained step
			// within one tick, so the transition itself is the only
			// evaluation where the z-score can see it.
			Name: "profile-hot-region-anomaly", Severity: telemetry.LevelWarn,
			Expr:   "cityinfra_profile_hot_region_self_seconds",
			ZScore: 4, WarmupTicks: 8,
			Op: tsdb.CmpGT, Threshold: 0.05,
			AndConditions: true,
		},
		{
			// Mitigation visibility: the adaptive controller dropping camera
			// streams is an operator-facing event even though the pipeline
			// itself looks healthier for it. The controller never watches
			// control-* rules (see controlWatchRules) — this is a page, not
			// a feedback input.
			Name: "control-load-shedding", Severity: telemetry.LevelWarn,
			Expr: "cityinfra_control_shed_level",
			Op:   tsdb.CmpGT, Threshold: 0,
		},
		{
			// Tier gauge: 1 = server (default home), 0 = fog-local.
			Name: "control-inference-migrated", Severity: telemetry.LevelWarn,
			Expr: "cityinfra_control_inference_tier",
			Op:   tsdb.CmpLT, Threshold: 0.5,
		},
	}
}

// wireMonitor boots the monitoring layer: the time-series store scraping
// the shared registry on the simulated clock, the derived
// undelivered-records counter the delivery rule watches, the
// events-dropped counter that makes event-ring eviction observable, and
// the default alert rules.
func (inf *Infrastructure) wireMonitor() error {
	inf.ScrapeInterval = defaultScrapeInterval
	inf.TSDB = tsdb.NewStore(inf.Telemetry, tsdb.Config{Capacity: 512, Now: inf.Clock.Now})
	inf.Alerts = tsdb.NewEngine(inf.TSDB, inf.Telemetry, inf.Events)

	inf.Telemetry.CounterFunc("cityinfra_pipeline_undelivered_total",
		"records that left the pipeline without landing in a store (dropped + dead-lettered)",
		func() float64 {
			return float64(inf.pipeDropped.Value()) + float64(inf.pipeDeadLettered.Value())
		})
	inf.Telemetry.CounterFunc("cityinfra_telemetry_events_dropped_total",
		"events silently evicted from the bounded event ring before being read",
		func() float64 { return float64(inf.Events.Dropped()) })

	for _, r := range DefaultAlertRules() {
		if err := inf.Alerts.AddRule(r, inf.Telemetry); err != nil {
			return fmt.Errorf("alert rule %s: %w", r.Name, err)
		}
	}
	return nil
}

// MonitorTick runs one deterministic monitoring cycle: advance the
// simulated clock by ScrapeInterval, run the broker cluster's controller
// pass (leader elections, follower catch-up — so failover latency is
// measured in these same ticks), scrape the registry into the time-series
// store, evaluate every alert rule against the new history, correlate the
// fresh alert states into incidents, and let the adaptive controller act on
// the same verdicts. Experiments and the -watch dashboard call it once per
// frame; nothing in it sleeps.
func (inf *Infrastructure) MonitorTick() {
	inf.Clock.Advance(inf.ScrapeInterval)
	inf.Broker.Tick()
	// Close the profiling window before the scrape so the
	// cityinfra_profile_* gauges sample the window that just ended.
	inf.Profiler.Tick()
	// Close the fleet's per-camera window before the scrape so the burn
	// gauges — and the vec top-K rebalance the scrape triggers — reflect the
	// tick that just ended.
	inf.Fleet.Tick()
	inf.TSDB.Scrape()
	inf.Alerts.Eval()
	// Correlation runs between the alert evaluation and the controller: it
	// sees this tick's alert transitions, and the controller's mitigation
	// actions land in the open incident's timeline on the next tick.
	inf.Incidents.Tick()
	// The controller runs last so its signals — alert states, the scrape it
	// queries, the profile window — are all from this tick.
	inf.Control.Tick()
}
