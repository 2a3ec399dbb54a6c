package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

// e25Scenario is one single-op chaos run: a hard partition on one backend's
// op prefix, with the component the correlation engine is expected to rank
// as the top suspect for every incident it opens.
type e25Scenario struct {
	name    string
	ops     []string
	suspect string
	frames  bool // frames workload (hdfs/bus/hbase paths) vs tweets (docstore path)
}

var e25Scenarios = []e25Scenario{
	{"hdfs-partition", []string{"hdfs."}, telemetry.CompHDFS, true},
	{"bus-partition", []string{"bus."}, telemetry.CompBroker, true},
	{"hbase-partition", []string{"hbase."}, telemetry.CompHBase, true},
	{"docstore-partition", []string{"store."}, telemetry.CompDocstore, false},
}

// e25Batch is the per-tick workload size. It is deliberately small: retry
// backoff under a hard blackout advances the simulated clock, and the batch
// must finish well inside the delivery rule's 15s rate window so consecutive
// scrapes stay comparable.
const e25Batch = 8

// e25RunScenario replays one scenario: 4 clean warmup ticks that must stay
// incident-free, a 6-tick hard partition of the scenario's ops that must open
// an incident within three ticks of onset, and an 8-tick clean recovery tail
// that must resolve it. The adaptive controller is held disabled so its
// mitigations cannot mask the symptom the correlation engine must explain.
// It returns the stack and the fault tick at which the first incident opened
// (0 if none did).
func e25RunScenario(seed int64, sc e25Scenario) (*core.Infrastructure, int, error) {
	frames := rand.New(rand.NewSource(seed + 1))
	tweets := newTweetSource(seed)
	var batch []citydata.Tweet
	openTick := 0
	inf, err := run(scenario{
		cfg:    chaosConfig(),
		phases: []phase{{"warmup", 4, nil}, {"fault", 6, partition(seed, sc.ops...)}, {"recovery", 8, nil}},
		load: func(t tick) error {
			if sc.frames {
				const cams = 4
				sweeps := e25Batch / cams
				_, err := t.inf.IngestFrames(core.SyntheticFrames(t.inf.Cameras[:cams], (t.n-1)*sweeps, sweeps, frames), "/warehouse/e25")
				return err
			}
			if batch == nil {
				var err error
				if batch, err = tweets.batch(t.inf, e25Batch); err != nil {
					return err
				}
			}
			_, err := t.inf.IngestTweets(batch)
			return err
		},
		observe: func(t tick) (bool, error) {
			opened := t.inf.Incidents.OpenedTotal()
			if t.phase.name == "warmup" && opened != 0 {
				return false, fmt.Errorf("%d incidents during clean warmup", opened)
			}
			if t.phase.faults != nil && openTick == 0 && opened > 0 {
				openTick = t.i
			}
			return false, nil
		},
	}, seed)
	return inf, openTick, err
}

// E25IncidentCorrelation drives the incident correlation engine through four
// single-op partitions — hdfs, message bus, hbase, docstore — and checks that
// on each one it opens an incident within three monitor ticks of fault onset,
// resolves it after the fault clears, and ranks the injected backend as the
// top suspect. The canonical incident record must replay byte-identically
// for the same seed (wall-clock diagnostics are excluded from it), which
// TestE25CanonicalReplay proves by running the first scenario twice.
func E25IncidentCorrelation(rng *rand.Rand) (*Result, error) {
	seed := rng.Int63()

	table := viz.NewTable("single-op partitions — incident correlation per scenario",
		"scenario", "incidents", "opened at fault tick", "resolved", "top suspect", "expected", "graph (nodes/edges)")
	totalIncidents, matches, canonicalBytes := 0, 0, 0
	for i, sc := range e25Scenarios {
		inf, openTick, err := e25RunScenario(seed, sc)
		if err != nil {
			return nil, fmt.Errorf("E25 %s: %w", sc.name, err)
		}
		opened := inf.Incidents.OpenedTotal()
		if opened == 0 {
			return nil, fmt.Errorf("E25 %s: no incident opened under the partition", sc.name)
		}
		if openTick < 1 || openTick > 3 {
			return nil, fmt.Errorf("E25 %s: incident opened at fault tick %d, want within 3", sc.name, openTick)
		}
		resolved := inf.Incidents.OpenCount() == 0
		if !resolved {
			return nil, fmt.Errorf("E25 %s: incident still open after the clean recovery tail", sc.name)
		}
		top := "-"
		for _, inc := range inf.Incidents.Incidents(0) {
			totalIncidents++
			if len(inc.Suspects) == 0 {
				return nil, fmt.Errorf("E25 %s: incident %s carries no suspects", sc.name, inc.ID)
			}
			if top == "-" {
				top = inc.Suspects[0].Component
			}
			if inc.Suspects[0].Component == sc.suspect {
				matches++
			}
		}
		nodes, edges := inf.Incidents.GraphSize()
		table.AddRow(sc.name, opened, openTick, resolved, top, sc.suspect, fmt.Sprintf("%d/%d", nodes, edges))
		if i == 0 {
			canonical, err := inf.Incidents.Canonical()
			if err != nil {
				return nil, fmt.Errorf("E25 %s canonical: %w", sc.name, err)
			}
			canonicalBytes = len(canonical)
		}
	}
	// The acceptance bar: the injected component tops the suspect ranking in
	// at least 90% of all incidents across the four scenarios.
	if matches*10 < totalIncidents*9 {
		return nil, fmt.Errorf("E25: injected component top-ranked in %d/%d incidents, want >= 90%%",
			matches, totalIncidents)
	}

	return &Result{
		ID: "E25", Title: "incident correlation — root-cause ranking under single-op partitions",
		Tables: []*viz.Table{table},
		Notes: []string{
			fmt.Sprintf("injected component top-ranked in %d/%d incidents (acceptance bar: 90%%)", matches, totalIncidents),
			"every incident opened within 3 monitor ticks of fault onset and resolved after the partition cleared",
			fmt.Sprintf("canonical incident record replays byte-identically for the same seed (%d bytes)", canonicalBytes),
		},
	}, nil
}
