package incident

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// fakeAlerts is a scriptable AlertSource: set refs to whatever the "alert
// engine" should report this tick.
type fakeAlerts struct {
	refs []tsdb.RuleRef
}

func (f *fakeAlerts) ActiveAppend(buf []tsdb.RuleRef) []tsdb.RuleRef {
	return append(buf, f.refs...)
}

func testClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	return func() time.Time { return t0 }
}

func testConfig() Config {
	var cfg Config
	cfg.Bindings = map[string][]string{
		"store":   {telemetry.CompDocstore, telemetry.CompBroker},
		"stream":  {telemetry.CompBroker},
		"archive": {telemetry.CompHDFS},
	}
	cfg.StageBackends = map[string]string{
		"produce": telemetry.CompBroker,
		"store":   telemetry.CompDocstore,
		"hdfs":    telemetry.CompHDFS,
	}
	cfg.SourceRoots = map[string]string{"tweets": "ingest-tweets"}
	cfg.Watch = map[string][]string{
		"ingest-delivery-rate": nil,
		"hdfs-lost-blocks":     {telemetry.CompHDFS},
	}
	cfg.CollateralMarkers = []string{"circuit breaker open"}
	return cfg
}

// observedEngine builds an engine that folds tr's spans as they end.
func observedEngine(tr *telemetry.Tracer, ev *telemetry.EventLog, alerts AlertSource) *Engine {
	e := NewEngine(ev, alerts, testConfig())
	tr.SetObserver(e.FoldSpan)
	return e
}

// ingestTrace builds one ingest-tweets-style trace: root → collect →
// stream → store.
func ingestTrace(tr *telemetry.Tracer, id string) {
	root := tr.Start(id, "ingest-tweets")
	for _, stage := range []string{"collect", "stream", "store"} {
		root.Child(stage, "").End()
	}
	root.End()
}

func TestGraphDerivation(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 64)
	e := observedEngine(tr, ev, &fakeAlerts{})

	ingestTrace(tr, "ingest-tweets-1")
	ingestTrace(tr, "ingest-tweets-2")
	e.Tick()

	gv := e.Graph()
	wantNodes := map[string]string{
		"ingest-tweets":         KindStage,
		"ingest-tweets/collect": KindStage,
		"ingest-tweets/stream":  KindStage,
		"ingest-tweets/store":   KindStage,
		telemetry.CompBroker:    KindBackend,
		telemetry.CompDocstore:  KindBackend,
	}
	if len(gv.Nodes) != len(wantNodes) {
		t.Fatalf("nodes = %d, want %d: %+v", len(gv.Nodes), len(wantNodes), gv.Nodes)
	}
	for _, n := range gv.Nodes {
		if wantNodes[n.Name] != n.Kind {
			t.Errorf("node %s kind = %s, want %s", n.Name, n.Kind, wantNodes[n.Name])
		}
	}
	// Two traces × (3 parent→child edges + stream→broker + store→{docstore,broker}).
	edges := map[string]int64{}
	for _, ed := range gv.Edges {
		edges[ed.From+"→"+ed.To] = ed.Traversals
	}
	for _, want := range []string{
		"ingest-tweets→ingest-tweets/collect",
		"ingest-tweets→ingest-tweets/stream",
		"ingest-tweets→ingest-tweets/store",
		"ingest-tweets/stream→broker",
		"ingest-tweets/store→docstore",
		"ingest-tweets/store→broker",
	} {
		if edges[want] != 2 {
			t.Errorf("edge %s traversals = %d, want 2 (edges: %v)", want, edges[want], edges)
		}
	}

	// Incremental: a third trace only adds its own spans.
	ingestTrace(tr, "ingest-tweets-3")
	e.Tick()
	gv = e.Graph()
	for _, ed := range gv.Edges {
		if ed.From == "ingest-tweets" && ed.Traversals != 3 {
			t.Errorf("edge %s→%s traversals = %d, want 3", ed.From, ed.To, ed.Traversals)
		}
	}
}

func TestIncidentLifecycleAndRanking(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 128)
	alerts := &fakeAlerts{}
	e := observedEngine(tr, ev, alerts)

	ingestTrace(tr, "ingest-tweets-1")
	e.Tick() // tick 1: quiet

	// Tick 2: the fault's evidence lands before the rule reacts — the
	// lookback window must still capture it.
	for i := 0; i < 5; i++ {
		ev.Log(telemetry.LevelWarn, telemetry.Component(telemetry.CompDeadLetter, "store"), fmt.Sprintf("tweets-%d", i),
			"tweets/store record %q quarantined: injected fault", fmt.Sprintf("t%d", i))
	}
	e.Tick()
	if n := e.OpenCount(); n != 0 {
		t.Fatalf("open before any alert = %d, want 0", n)
	}

	// Tick 3: delivery rule goes pending → incident opens with the
	// lookback evidence folded in.
	alerts.refs = []tsdb.RuleRef{{Name: "ingest-delivery-rate", State: tsdb.StatePending, Severity: "error"}}
	e.Tick()
	if n := e.OpenCount(); n != 1 {
		t.Fatalf("open after alert = %d, want 1", n)
	}
	incs := e.Incidents(0)
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	inc := incs[0]
	if inc.State != StateOpen || inc.OpenedTick != 3 {
		t.Fatalf("incident state/tick = %s/%d, want open/3", inc.State, inc.OpenedTick)
	}
	if len(inc.Suspects) == 0 || inc.Suspects[0].Component != telemetry.CompDocstore {
		t.Fatalf("top suspect = %+v, want docstore first", inc.Suspects)
	}
	if inc.Suspects[0].DLQ != 5 {
		t.Errorf("docstore dlq evidence = %d, want 5", inc.Suspects[0].DLQ)
	}
	if inc.Suspects[0].Depth < 0 {
		t.Errorf("docstore depth = %d, want reachable from the ingest root", inc.Suspects[0].Depth)
	}
	if len(inc.Exemplars) == 0 {
		t.Errorf("no exemplar traces captured: %+v", inc)
	}

	// A control-* rule joining must not extend the rule set (excluded),
	// and the incident resolves once watched rules go inactive.
	alerts.refs = []tsdb.RuleRef{{Name: "control-shed-active", State: tsdb.StateFiring, Severity: "warn"}}
	e.Tick()
	if n := e.OpenCount(); n != 0 {
		t.Fatalf("incident should resolve when only excluded rules remain, open = %d", n)
	}
	incs = e.Incidents(0)
	if incs[0].State != StateResolved || incs[0].ResolvedTick != 4 {
		t.Fatalf("resolved state/tick = %s/%d, want resolved/4", incs[0].State, incs[0].ResolvedTick)
	}
	if got := incs[0].Rules; len(got) != 1 || got[0] != "ingest-delivery-rate" {
		t.Fatalf("rules = %v, want [ingest-delivery-rate]", got)
	}
	last := incs[0].Timeline[len(incs[0].Timeline)-1]
	if last.Component != telemetry.CompIncident || last.Tick != 4 {
		t.Fatalf("timeline should end with the resolve marker, got %+v", last)
	}
	if e.OpenedTotal() != 1 || e.ResolvedTotal() != 1 {
		t.Fatalf("totals = %d/%d, want 1/1", e.OpenedTotal(), e.ResolvedTotal())
	}
}

func TestBreakerCollateralNotBackendEvidence(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 128)
	alerts := &fakeAlerts{}
	e := observedEngine(tr, ev, alerts)

	ingestTrace(tr, "ingest-tweets-1")
	// Real HDFS failures plus docstore quarantines that are only breaker
	// fail-fast collateral: hdfs must outrank docstore.
	for i := 0; i < 4; i++ {
		ev.Log(telemetry.LevelWarn, telemetry.Component(telemetry.CompDeadLetter, "hdfs"), "",
			"tweets/hdfs record %q quarantined: injected fault", fmt.Sprintf("h%d", i))
	}
	for i := 0; i < 10; i++ {
		ev.Log(telemetry.LevelWarn, telemetry.Component(telemetry.CompDeadLetter, "store"), "",
			"tweets/store record %q quarantined: retry: circuit breaker open", fmt.Sprintf("s%d", i))
	}
	alerts.refs = []tsdb.RuleRef{{Name: "ingest-delivery-rate", State: tsdb.StateFiring, Severity: "error"}}
	e.Tick()
	incs := e.Incidents(1)
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	top := incs[0].Suspects[0]
	if top.Component != telemetry.CompHDFS {
		t.Fatalf("top suspect = %+v, want hdfs (collateral must not frame docstore)", incs[0].Suspects)
	}
	for _, s := range incs[0].Suspects {
		if s.Component == telemetry.CompBreaker && s.Breaker != 10 {
			t.Errorf("breaker collateral count = %d, want 10", s.Breaker)
		}
		if s.Component == telemetry.CompDocstore {
			t.Errorf("docstore should carry no evidence, got %+v", s)
		}
	}
}

func TestRuleComponentAnchoring(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 64)
	alerts := &fakeAlerts{}
	e := observedEngine(tr, ev, alerts)

	ingestTrace(tr, "ingest-tweets-1")
	// Only the component-anchored rule fires: hdfs gets the rule-hit score
	// even without a single event.
	alerts.refs = []tsdb.RuleRef{{Name: "hdfs-lost-blocks", State: tsdb.StateFiring, Severity: "error"}}
	e.Tick()
	incs := e.Incidents(1)
	if len(incs) != 1 || len(incs[0].Suspects) == 0 {
		t.Fatalf("want one incident with suspects, got %+v", incs)
	}
	if top := incs[0].Suspects[0]; top.Component != telemetry.CompHDFS || top.RuleHits != 1 {
		t.Fatalf("top = %+v, want hdfs with one rule hit", top)
	}
}

func TestUnwatchedRuleIsIgnored(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 64)
	alerts := &fakeAlerts{}
	e := observedEngine(tr, ev, alerts)

	ingestTrace(tr, "ingest-tweets-1")
	// A rule outside Watch opens nothing, whatever its name.
	diskFull := tsdb.RuleRef{Name: "disk-full", State: tsdb.StateFiring, Severity: "error"}
	alerts.refs = []tsdb.RuleRef{diskFull}
	ev.Log(telemetry.LevelError, telemetry.CompAlerts, "", "alert disk-full firing: disk_used = 1")
	e.Tick()
	if n := e.OpenCount(); n != 0 {
		t.Fatalf("open with only an unwatched rule firing = %d, want 0", n)
	}

	// Once a watched rule opens the incident, the unwatched rule's
	// transitions, before and after the open, stay out of it.
	alerts.refs = []tsdb.RuleRef{diskFull, {Name: "ingest-delivery-rate", State: tsdb.StateFiring, Severity: "error"}}
	ev.Log(telemetry.LevelError, telemetry.CompAlerts, "", "alert ingest-delivery-rate firing: undelivered = 1")
	e.Tick()
	ev.Log(telemetry.LevelInfo, telemetry.CompAlerts, "", "alert disk-full resolved (value 0)")
	e.Tick()
	incs := e.Incidents(1)
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	if got := incs[0].Rules; len(got) != 1 || got[0] != "ingest-delivery-rate" {
		t.Fatalf("rules = %v, want [ingest-delivery-rate]", got)
	}
	alertEntries := 0
	for _, te := range incs[0].Timeline {
		if te.Component != telemetry.CompAlerts {
			continue
		}
		alertEntries++
		if strings.Contains(te.Message, "disk-full") {
			t.Errorf("timeline holds the unwatched rule's event %q", te.Message)
		}
	}
	if alertEntries != 1 {
		t.Errorf("alert timeline entries = %d, want 1 (the watched rule's firing)", alertEntries)
	}
}

func TestTimelineCapCountsDrops(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 256)
	alerts := &fakeAlerts{}
	e := observedEngine(tr, ev, alerts)

	alerts.refs = []tsdb.RuleRef{{Name: "ingest-delivery-rate", State: tsdb.StateFiring, Severity: "error"}}
	e.Tick()
	for i := 0; i < 2*maxTimeline; i++ {
		ev.Log(telemetry.LevelWarn, telemetry.Component(telemetry.CompDeadLetter, "store"), "",
			"tweets/store record %q quarantined: injected fault", fmt.Sprintf("x%d", i))
	}
	alerts.refs = nil
	e.Tick()
	incs := e.Incidents(1)
	inc := incs[0]
	// Cap + the always-appended resolve marker.
	if len(inc.Timeline) != maxTimeline+1 {
		t.Fatalf("timeline len = %d, want %d", len(inc.Timeline), maxTimeline+1)
	}
	if inc.TimelineDropped == 0 {
		t.Fatalf("dropped = 0, want > 0")
	}
}

// The resolved ring keeps the newest maxResolved incidents, newest first,
// while the transition counters keep counting every episode.
func TestResolvedRingKeepsNewest(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 128)
	alerts := &fakeAlerts{}
	e := observedEngine(tr, ev, alerts)

	const episodes = maxResolved + 8
	for i := 0; i < episodes; i++ {
		alerts.refs = []tsdb.RuleRef{{Name: "ingest-delivery-rate", State: tsdb.StateFiring, Severity: "error"}}
		e.Tick()
		alerts.refs = nil
		// Stay quiet past the reopen grace so the next alert opens a new
		// incident instead of reopening this one.
		for q := 0; q <= reopenTicks+1; q++ {
			e.Tick()
		}
	}
	if e.OpenedTotal() != episodes || e.ResolvedTotal() != episodes {
		t.Fatalf("totals = %d/%d, want %d/%d", e.OpenedTotal(), e.ResolvedTotal(), episodes, episodes)
	}
	incs := e.Incidents(0)
	if len(incs) != maxResolved {
		t.Fatalf("retained %d incidents, want %d", len(incs), maxResolved)
	}
	for i, inc := range incs {
		if want := fmt.Sprintf("INC-%d", episodes-i); inc.ID != want || inc.State != StateResolved {
			t.Fatalf("incident %d = %s/%s, want %s/resolved", i, inc.ID, inc.State, want)
		}
	}
}

// TestCanonicalReplay feeds two engines an identical deterministic script
// and requires byte-identical canonical output — the property E25 checks
// end to end.
func TestCanonicalReplay(t *testing.T) {
	run := func() []byte {
		tr := telemetry.NewTracer(testClock(), 16)
		ev := telemetry.NewEventLog(testClock(), 128)
		alerts := &fakeAlerts{}
		e := observedEngine(tr, ev, alerts)
		e.SetHotRegion(func() (string, float64) { return "ingest/store", 0.97 })

		ingestTrace(tr, "ingest-tweets-1")
		e.Tick()
		for i := 0; i < 3; i++ {
			ev.Log(telemetry.LevelWarn, telemetry.Component(telemetry.CompDeadLetter, "store"), fmt.Sprintf("tweets-%d", i),
				"tweets/store record %q quarantined: injected fault", fmt.Sprintf("t%d", i))
		}
		alerts.refs = []tsdb.RuleRef{{Name: "ingest-delivery-rate", State: tsdb.StateFiring, Severity: "error"}}
		e.Tick()
		alerts.refs = nil
		e.Tick()
		out, err := e.Canonical()
		if err != nil {
			t.Fatalf("canonical: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical replay differs:\n%s\n---\n%s", a, b)
	}
	if bytes.Contains(a, []byte("hotRegion")) {
		t.Fatalf("canonical output must strip wall-clock diagnostics:\n%s", a)
	}
}

func TestSteadyStateTickAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	tr := telemetry.NewTracer(testClock(), 16)
	ev := telemetry.NewEventLog(testClock(), 64)
	e := observedEngine(tr, ev, &fakeAlerts{})
	ingestTrace(tr, "ingest-tweets-1")
	ev.Log(telemetry.LevelWarn, telemetry.Component(telemetry.CompDeadLetter, "store"), "",
		"tweets/store record quarantined: injected fault")
	e.Tick() // drain the one-off inputs

	if allocs := testing.AllocsPerRun(200, e.Tick); allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f allocs/op, want 0", allocs)
	}
}
