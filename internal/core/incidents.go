package core

import (
	"fmt"

	"repro/internal/incident"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// incidentBindings declares where the trace-derived stage graph touches the
// storage and streaming backends. Keys are span names (or "root/span" for
// per-pipeline overrides); values are the backend components that stage
// calls into. Binding edges only materialize once the stage appears in a
// trace, so the graph stays an observed topology, not a wished-for one.
func incidentBindings() map[string][]string {
	return map[string][]string{
		// Flume sink → broker produce on the tweet/waze/911 paths; the
		// storage tier also polls the broker inside this span's trace.
		"stream": {telemetry.CompBroker},
		// Storage drains poll the broker, then write the document store.
		"store": {telemetry.CompDocstore, telemetry.CompBroker},
		// The crime path lands in HBase (bulk + streaming hybrid), not the
		// document store.
		"ingest-crimes/store": {telemetry.CompHBase},
		// Frame offload: the gate produces feature maps onto the broker.
		"offload-produce": {telemetry.CompBroker},
		// Server-side inference polls the broker and archives via putCell.
		"inference": {telemetry.CompBroker, telemetry.CompHBase},
		// Fog-local inference skips the broker but still annotates HBase.
		"fog-inference": {telemetry.CompHBase},
		// Archive spans write HDFS; the frame archive also writes the HBase
		// annotation row before the feature map.
		"archive":              {telemetry.CompHDFS},
		"ingest-frame/archive": {telemetry.CompHBase, telemetry.CompHDFS},
	}
}

// incidentStageBackends maps a dead-letter quarantine stage to the backend
// whose failure it evidences. "decode" is absent on purpose: a poisoned
// payload indicts the producer, not a backend.
func incidentStageBackends() map[string]string {
	return map[string]string{
		"produce": telemetry.CompBroker,
		"store":   telemetry.CompDocstore,
		"hbase":   telemetry.CompHBase,
		"hdfs":    telemetry.CompHDFS,
	}
}

// incidentSourceRoots maps dead-letter source names to their trace-root
// graph nodes, for per-edge RED error attribution.
func incidentSourceRoots() map[string]string {
	return map[string]string{
		"tweets":   "ingest-tweets",
		"waze":     "ingest-waze",
		"crimes":   "ingest-crimes",
		"calls911": "ingest-911",
		"frames":   "ingest-frame",
	}
}

// incidentRuleComponents anchors alert rules that directly name a component
// at that component; rules absent here (delivery rate, p99 anomaly) are
// generic symptoms anchored at every ingest root.
func incidentRuleComponents() map[string][]string {
	return map[string][]string{
		"hdfs-lost-blocks":        {telemetry.CompHDFS},
		"broker-under-replicated": {telemetry.CompBroker},
		"breaker-open":            {telemetry.CompBreaker},
	}
}

// wireIncidents boots the incident correlation engine over the telemetry
// surfaces wired earlier and registers the cityinfra_incident_* family,
// which the TSDB self-scrapes like every other registry series.
func (inf *Infrastructure) wireIncidents() {
	cfg := incident.DefaultConfig()
	cfg.Bindings = incidentBindings()
	cfg.StageBackends = incidentStageBackends()
	cfg.SourceRoots = incidentSourceRoots()
	cfg.RuleComponents = incidentRuleComponents()
	// Mitigation-visibility rules must not hold incidents open: shedding
	// stays active for as long as the controller sheds — the same
	// anti-feedback reasoning as controlWatchRules. The wall-clock anomaly
	// rules (profile-*, ingest-p99-anomaly) are excluded for the same
	// reason the controller refuses to watch them: they alert operators on
	// machine-load noise, so an incident opened by one would carry no
	// deterministic evidence and would break canonical replay. Hot-region
	// context still reaches incident records through the SetHotRegion
	// diagnostic below.
	// camera-* is excluded for a different reason: the fleet rule fires on
	// the same quarantines that already fire ingest-delivery-rate, so letting
	// it open/hold incidents would only double-count the symptom. Per-camera
	// context reaches the incident record through the SetEvidence supplier
	// below instead.
	cfg.ExcludeRulePrefixes = []string{"control-", "profile-", "ingest-p99-anomaly", "camera-"}
	// A quarantine whose cause chain contains the breaker's fail-fast
	// marker never reached the stage's backend: classify it as shared
	// breaker collateral instead of backend evidence, so a breaker opened
	// by (say) an HDFS partition cannot frame the document store.
	cfg.CollateralMarkers = []string{retry.ErrBreakerOpen.Error()}

	inf.Incidents = incident.NewEngine(inf.Tracer, inf.Events, inf.Alerts, cfg)
	// Per-camera evidence on frame-path backend suspects: which cameras the
	// component's failure is actually hurting, ranked by burn. Exact counter
	// reads off the fleet's vec handles — deterministic under the simulated
	// clock, so the strings survive canonical replay byte-identically.
	inf.Incidents.SetEvidence(func(component string) []string {
		switch component {
		case telemetry.CompBroker, telemetry.CompHBase, telemetry.CompHDFS:
		default:
			return nil
		}
		var out []string
		for _, cs := range inf.Fleet.TopBurning(3) {
			if cs.Undelivered == 0 {
				continue
			}
			out = append(out, fmt.Sprintf("camera %s: %d/%d frames undelivered, burn %.1f",
				cs.Camera, cs.Undelivered, cs.Ingested, cs.Burn))
		}
		return out
	})
	// Hot-region attachment is a wall-clock diagnostic: it rides on the
	// incident record for operators but is excluded from canonical replay
	// output — the same determinism boundary wireControl draws around the
	// controller's signals.
	inf.Incidents.SetHotRegion(func() (string, float64) {
		hot := inf.Profiler.HotRegions(1)
		if len(hot) == 0 {
			return "", 0
		}
		return hot[0].Region, hot[0].Share
	})

	r := inf.Telemetry
	r.GaugeFunc("cityinfra_incident_open", "incidents currently open",
		func() float64 { return float64(inf.Incidents.OpenCount()) })
	r.CounterFunc("cityinfra_incident_opened_total", "transitions into the open state (flap reopens count again)",
		func() float64 { return float64(inf.Incidents.OpenedTotal()) })
	r.CounterFunc("cityinfra_incident_resolved_total", "transitions into the resolved state",
		func() float64 { return float64(inf.Incidents.ResolvedTotal()) })
	r.GaugeFunc("cityinfra_incident_graph_nodes", "dependency-graph nodes derived from traces",
		func() float64 { n, _ := inf.Incidents.GraphSize(); return float64(n) })
	r.GaugeFunc("cityinfra_incident_graph_edges", "dependency-graph edges derived from traces",
		func() float64 { _, e := inf.Incidents.GraphSize(); return float64(e) })
}
