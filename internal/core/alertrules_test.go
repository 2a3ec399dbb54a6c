package core

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// TestDefaultAlertRulesTable pins the shipped rule set — names, severities,
// comparison setpoints, streak requirements — and proves every referenced
// series actually exists after a monitor tick, so a renamed metric can't
// silently turn a rule into a never-firing no-op (missing series never
// breach).
func TestDefaultAlertRulesTable(t *testing.T) {
	want := []struct {
		name      string
		severity  string
		op        string
		threshold float64
		forTicks  int
		zscore    float64
	}{
		{"ingest-delivery-rate", telemetry.LevelError, tsdb.CmpGT, 0, 1, 0},
		{"breaker-open", telemetry.LevelError, tsdb.CmpGT, 1.5, 0, 0},
		{"hdfs-lost-blocks", telemetry.LevelError, tsdb.CmpGT, 0, 0, 0},
		{"camera-delivery-rate", telemetry.LevelError, tsdb.CmpGT, 0, 1, 0},
		{"ingest-p99-anomaly", telemetry.LevelWarn, "", 0, 1, 4},
		{"broker-under-replicated", telemetry.LevelWarn, tsdb.CmpGT, 0, 0, 0},
		{"profile-hot-region-anomaly", telemetry.LevelWarn, tsdb.CmpGT, 0.05, 0, 4},
		{"control-load-shedding", telemetry.LevelWarn, tsdb.CmpGT, 0, 0, 0},
		{"control-inference-migrated", telemetry.LevelWarn, tsdb.CmpLT, 0.5, 0, 0},
	}

	rules := DefaultAlertRules()
	if len(rules) != len(want) {
		t.Fatalf("rule count = %d, want %d", len(rules), len(want))
	}
	byName := map[string]tsdb.Rule{}
	for i, r := range rules {
		if r.Name != want[i].name {
			t.Errorf("rule %d = %q, want %q (order is part of the contract)", i, r.Name, want[i].name)
		}
		byName[r.Name] = r
	}
	for _, w := range want {
		r, ok := byName[w.name]
		if !ok {
			continue // order mismatch already reported
		}
		if r.Severity != w.severity {
			t.Errorf("%s: severity %q, want %q", w.name, r.Severity, w.severity)
		}
		if w.op != "" && (r.Op != w.op || r.Threshold != w.threshold) {
			t.Errorf("%s: %s %v, want %s %v", w.name, r.Op, r.Threshold, w.op, w.threshold)
		}
		if r.ForTicks != w.forTicks {
			t.Errorf("%s: ForTicks %d, want %d", w.name, r.ForTicks, w.forTicks)
		}
		if r.ZScore != w.zscore {
			t.Errorf("%s: ZScore %v, want %v", w.name, r.ZScore, w.zscore)
		}
		if r.Expr == "" {
			t.Errorf("%s: empty expression", w.name)
		}
	}

	// Every rule's expression must evaluate cleanly after real traffic and
	// enough scrapes to fill the 15 s rate windows, so a renamed metric (or a
	// selector the query layer can't parse) can't silently turn a rule into a
	// never-firing no-op.
	inf := bootSmall(t)
	if _, err := inf.IngestFrames([]FrameEvent{{
		CameraID: "cam-1", Seq: 1, Class: "vehicle", Confidence: 0.3,
		RawBytes: 1 << 10, FeatureBytes: 256,
	}}, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inf.MonitorTick()
	}
	for _, r := range rules {
		if _, err := inf.TSDB.Eval(r.Expr, inf.TSDB.Now()); err != nil {
			t.Errorf("%s: expr %q did not resolve after scrape: %v", r.Name, r.Expr, err)
		}
	}

	// The booted engine carries exactly this rule set.
	states := inf.Alerts.States()
	if len(states) != len(rules) {
		t.Fatalf("engine has %d rules, want %d", len(states), len(rules))
	}
}

// TestActionableRulesAreDefaultRules holds the one list the controller and
// the incident engine act on to the rules the engine registers: a misspelt
// or renamed entry would be inert in both consumers without failing a run.
func TestActionableRulesAreDefaultRules(t *testing.T) {
	registered := map[string]bool{}
	for _, r := range DefaultAlertRules() {
		registered[r.Name] = true
	}
	for name := range actionableRules() {
		if !registered[name] {
			t.Errorf("actionable rule %q is not a default alert rule", name)
		}
	}
}
