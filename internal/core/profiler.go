package core

import (
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// wireProfiler boots the continuous-profiling layer: one always-on profiler
// shared by every tier, attached to the component seams (broker replication,
// HBase WAL/flush, HDFS block I/O, TSDB scrape/query, fog simulation) and
// pre-resolved pipeline regions for the ingest paths. Region totals are
// self-scraped into the TSDB as cityinfra_profile_* series, so the hot-region
// alert rule and the dashboard read profiling data through the exact same
// monitoring path as every other signal.
//
// Every instrumented region is created here or by a SetProfiler call below,
// so RegionNames() at the end of wiring is the complete inventory and the
// per-region series can be registered once, eagerly.
func (inf *Infrastructure) wireProfiler() {
	p := profile.New(profile.Config{})
	inf.Profiler = p

	// Component seams.
	inf.Broker.SetProfiler(p)
	inf.CrimeTab.SetProfiler(p)
	inf.VideoTab.SetProfiler(p)
	inf.HDFS.SetProfiler(p)
	inf.TSDB.SetProfiler(p)
	inf.Deployment.Topo.SetProfiler(p)

	// Pipeline regions (threaded through pipeline.go and frames.go).
	inf.profIngest = p.Region("ingest")
	inf.profCollect = p.Region("ingest/collect")
	inf.profStream = p.Region("ingest/stream")
	inf.profStore = p.Region("ingest/store")
	inf.profArchive = p.Region("ingest/archive")
	inf.profGate = p.Region("ingest/gate")
	inf.profInference = p.Region("ingest/inference")

	// Per-region cumulative series plus per-tick window gauges. The windowed
	// values only move on Profiler.Tick (from MonitorTick), so a scrape reads
	// a consistent window no matter how much traffic is in flight.
	for _, name := range p.RegionNames() {
		r := p.Region(name)
		label := func(family string) string {
			return telemetry.FormatName(family, telemetry.LabelSet{{Key: "region", Value: name}})
		}
		inf.Telemetry.CounterFunc(label("cityinfra_profile_region_seconds_total"),
			"cumulative wall-clock seconds attributed to the region", r.WallSeconds)
		inf.Telemetry.CounterFunc(label("cityinfra_profile_region_calls_total"),
			"completed spans in the region",
			func() float64 { return float64(r.Calls()) })
		inf.Telemetry.CounterFunc(label("cityinfra_profile_region_alloc_bytes_total"),
			"sampled heap bytes attributed to the region",
			func() float64 { return float64(r.AllocBytes()) })
		name := name
		inf.Telemetry.GaugeFunc(label("cityinfra_profile_region_window_self_seconds"),
			"self (non-child) seconds spent in the region during the last profile tick",
			func() float64 { return p.WindowSelfSeconds(name) })
	}
	inf.Telemetry.GaugeFunc("cityinfra_profile_hot_region_self_seconds",
		"self seconds of the hottest region in the last profile tick", p.HotSelfSeconds)
	inf.Telemetry.GaugeFunc("cityinfra_profile_hot_region_share",
		"hottest region's share of all attributed self time in the last profile tick", p.HotShare)
}
