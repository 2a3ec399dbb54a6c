// Package experiments regenerates, one runner per paper artifact, the
// behaviors behind every figure and quantitative claim in the paper (see
// DESIGN.md §4 for the full index). Each experiment is deterministic given
// its seed (TestSameSeedSameBytes lists the few cells that print a stopwatch
// reading), returns plain-text tables, and is run by cmd/experiments. No
// experiment measures performance: that is `go run ./benchmark`.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/viz"
)

// ErrUnknownExperiment is returned for unregistered experiment ids.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Tables []*viz.Table
	Notes  []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Runner executes one experiment.
type Runner func(rng *rand.Rand) (*Result, error)

type registration struct {
	id    string
	title string
	run   Runner
}

var registry = []registration{
	{"E1", "Fig. 1 — four-layer architecture boots end to end", E1EndToEnd},
	{"E2", "Fig. 2 — DOTD camera network across Louisiana", E2CameraNetwork},
	{"E3", "Fig. 3 — four-tier fog pipeline offload sweep", E3FogOffloadSweep},
	{"E4", "Fig. 4 — collection → NoSQL → analysis pipeline", E4IngestPipeline},
	{"E5", "Fig. 5 — early-exit vehicle detector threshold sweep", E5EarlyExitDetector},
	{"E6", "Fig. 6 — vehicle detection examples", E6DetectionExamples},
	{"E7", "Fig. 7 — CNN+LSTM action recognition with entropy exits", E7ActionRecognition},
	{"E8", "Fig. 8 — ResNet shortcut ablation (conv vs maxpool vs identity)", E8ShortcutAblation},
	{"E9", "§IV.B — gang network associate expansion (67 groups, 982 members)", E9AssociateExpansion},
	{"E10", "§IV.B — persons-of-interest narrowing funnel", E10PersonsOfInterest},
	{"E11", "§III.C — multi-modal autoencoder fusion + CCA", E11MultiModalFusion},
	{"E12", "§III.D — deep RL camera control vs baselines", E12CameraControlDRL},
	{"E13", "§II.B/§II.C — storage layer: replication & HBase vs HDFS", E13StorageLayer},
	{"E14", "§II.C — dataproc scaling & MLlib on crime data", E14DataprocMLlib},
	{"E15", "§III.A — geospatial crime 'images' analyzed with CNNs", E15GeospatialCNN},
	{"E16", "§V — opioid epidemic multi-source analytics (future work)", E16OpioidAnalytics},
	{"E17", "§II.C — distributed graph analytics (PageRank, components)", E17GraphAnalytics},
	{"E18", "robustness — chaos sweep vs retry/breaker/DLQ hardening", E18ChaosPipeline},
	{"E19", "telemetry — per-tier latency attribution across offload thresholds", E19LatencyAttribution},
	{"E20", "observability — traced chaos sweep: propagation, exemplars, SLO burn", E20TracedChaosSweep},
	{"E21", "observability — metrics TSDB, windowed queries, alert lifecycle", E21MetricsMonitor},
	{"E22", "robustness — replicated broker: leader kill, ISR election, zero acked loss", E22ClusterFailover},
	{"E23", "observability — continuous profiling: hot regions, exact telescoping, burn localization", E23Profile},
	{"E24", "autonomy — closed-loop adaptive control vs static baseline under phased partitions", E24AdaptiveControl},
	{"E25", "observability — incident correlation: root-cause ranking under single-op partitions", E25IncidentCorrelation},
	{"E26", "observability — fleet-scale per-camera labels: bounded cardinality, targeted-fault localization", E26FleetObservability},
}

// IDs lists experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Titles maps id → title.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for _, r := range registry {
		out[r.id] = r.title
	}
	return out
}

// Run executes one experiment by id with the given seed.
func Run(id string, seed int64) (*Result, error) {
	for _, r := range registry {
		if r.id == id {
			return r.run(rand.New(rand.NewSource(seed)))
		}
	}
	return nil, fmt.Errorf("%w: %s (known: %v)", ErrUnknownExperiment, id, IDs())
}

// sortedKeys returns map keys in sorted order, for stable table output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
