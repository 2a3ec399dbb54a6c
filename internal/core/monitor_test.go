package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tsdb"
)

// TestMonitorWiredAtBoot checks New() hands every Infrastructure a scraping
// store, the default alert rules, and the derived counters they watch.
func TestMonitorWiredAtBoot(t *testing.T) {
	inf := bootSmall(t)
	if inf.TSDB == nil || inf.Alerts == nil {
		t.Fatal("monitor layer not wired")
	}
	if inf.ScrapeInterval <= 0 {
		t.Fatalf("scrape interval = %v", inf.ScrapeInterval)
	}

	states := inf.Alerts.States()
	byName := make(map[string]tsdb.RuleStatus, len(states))
	for _, st := range states {
		byName[st.Rule.Name] = st
	}
	for _, want := range DefaultAlertRules() {
		if _, ok := byName[want.Name]; !ok {
			t.Fatalf("default rule %q not installed (have %v)", want.Name, byName)
		}
	}

	// One tick populates the store, including the derived counters.
	inf.MonitorTick()
	for _, series := range []string{
		"cityinfra_pipeline_undelivered_total",
		"cityinfra_telemetry_events_dropped_total",
		"cityinfra_tsdb_alerts_firing",
		"cityinfra_pipeline_collected_total",
	} {
		if _, err := inf.TSDB.Latest(series); err != nil {
			t.Fatalf("after one tick, %s: %v", series, err)
		}
	}
	if inf.TSDB.Scrapes() != 1 {
		t.Fatalf("scrapes = %d", inf.TSDB.Scrapes())
	}
}

// TestMonitorTickAdvancesSimulatedClock pins the deterministic-clock
// contract: each tick moves the store's notion of now by exactly
// ScrapeInterval, so windows are tick-aligned and nothing depends on
// wall-clock time.
func TestMonitorTickAdvancesSimulatedClock(t *testing.T) {
	inf := bootSmall(t)
	start := inf.TSDB.Now()
	inf.MonitorTick()
	inf.MonitorTick()
	if got, want := inf.TSDB.Now().Sub(start), 2*inf.ScrapeInterval; got != want {
		t.Fatalf("clock advanced %v, want %v", got, want)
	}
	s1, err := inf.TSDB.Samples("cityinfra_pipeline_collected_total", start, inf.TSDB.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 2 || s1[1].TimeUnixNs-s1[0].TimeUnixNs != int64(inf.ScrapeInterval) {
		t.Fatalf("samples not tick-aligned: %+v", s1)
	}
}

// TestMonitorConcurrentWithIngest runs scrape/eval ticks and query reads
// concurrently with pipeline traffic. Run under -race this is the proof the
// monitoring layer can share the registry with live ingestion.
func TestMonitorConcurrentWithIngest(t *testing.T) {
	inf := bootSmall(t)
	tweets := genTweets(t, inf, 60, 11)

	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := inf.IngestTweets(tweets); err != nil {
				errc <- fmt.Errorf("ingest: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			inf.MonitorTick()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_, _ = inf.TSDB.Eval("rate(cityinfra_pipeline_collected_total[15s])", inf.TSDB.Now())
			_ = inf.Alerts.States()
			_ = inf.TSDB.Inventory()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if inf.TSDB.Scrapes() != 20 {
		t.Fatalf("scrapes = %d, want 20", inf.TSDB.Scrapes())
	}
	// The concurrent scrapes interleave arbitrarily with the ingests; one
	// final tick observes everything that landed.
	inf.MonitorTick()
	s, err := inf.TSDB.Latest("cityinfra_pipeline_collected_total")
	if err != nil || s.Value != 240 {
		t.Fatalf("collected latest = %+v, %v; want 240", s, err)
	}
}

// TestDefaultDeliveryRuleFiresOnDeadLetters walks the shipped delivery-rate
// rule through its lifecycle using real pipeline traffic: poisoned records
// dead-letter, the rule goes pending then firing, and draining the window
// resolves it.
func TestDefaultDeliveryRuleFiresOnDeadLetters(t *testing.T) {
	inf := bootSmall(t)
	tweets := genTweets(t, inf, 40, 13)

	stateOf := func() string {
		for _, st := range inf.Alerts.States() {
			if st.Rule.Name == "ingest-delivery-rate" {
				return st.State
			}
		}
		t.Fatal("ingest-delivery-rate rule missing")
		return ""
	}

	// Clean warmup: rule stays inactive.
	for i := 0; i < 4; i++ {
		if _, err := inf.IngestTweets(tweets); err != nil {
			t.Fatal(err)
		}
		inf.MonitorTick()
	}
	if got := stateOf(); got != tsdb.StateInactive {
		t.Fatalf("clean warmup state = %q", got)
	}

	// Two poisoned ticks: pending on the first breach, firing on the second.
	poisonTick := func() {
		t.Helper()
		if _, _, err := inf.Broker.Produce("tweets", "poison", []byte("{malformed")); err != nil {
			t.Fatal(err)
		}
		if _, err := inf.IngestTweets(tweets); err != nil {
			t.Fatal(err)
		}
		inf.MonitorTick()
	}
	poisonTick()
	if got := stateOf(); got != tsdb.StatePending {
		t.Fatalf("after first poisoned tick state = %q, want pending", got)
	}
	poisonTick()
	if got := stateOf(); got != tsdb.StateFiring {
		t.Fatalf("after second poisoned tick state = %q, want firing", got)
	}
	if firing := inf.Alerts.Firing(); len(firing) != 1 || firing[0] != "ingest-delivery-rate" {
		t.Fatalf("firing = %v", firing)
	}

	// Clean ticks drain the 15 s window; the rule must resolve.
	for i := 0; i < 6 && stateOf() != tsdb.StateInactive; i++ {
		if _, err := inf.IngestTweets(tweets); err != nil {
			t.Fatal(err)
		}
		inf.MonitorTick()
	}
	if got := stateOf(); got != tsdb.StateInactive {
		t.Fatalf("rule did not resolve, state = %q", got)
	}
}
