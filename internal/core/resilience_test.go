package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/docstore"
	"repro/internal/faults"
	"repro/internal/hbase"
	"repro/internal/retry"
	"repro/internal/stream"
)

func genTweets(t *testing.T, inf *Infrastructure, n int, seed int64) []citydata.Tweet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(inf.Config().Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := citydata.DefaultTweetConfig(inf.Config().Epoch)
	cfg.Count = n
	tweets, err := citydata.GenerateTweets(cfg, incidents, inf.Gang, rng)
	if err != nil {
		t.Fatal(err)
	}
	return tweets
}

func TestIngest911ThroughBroker(t *testing.T) {
	inf := bootSmall(t)
	calls, err := citydata.Generate911(50, inf.Config().Epoch, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := inf.Ingest911(calls)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streamed != 50 || stats.Stored != 50 || stats.Dropped != 0 || stats.DeadLettered != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if n := inf.DocDB.Collection("calls911").Count(); n != 50 {
		t.Fatalf("stored calls = %d", n)
	}
}

// TestPoisonedRecordsQuarantined: garbage on the topic must not abort the
// drain — the broker's at-most-once poll would strand every record polled
// alongside it. Instead it lands in the dead-letter collection and the
// well-formed records all arrive.
func TestPoisonedRecordsQuarantined(t *testing.T) {
	inf := bootSmall(t)
	for i := 0; i < 3; i++ {
		if _, _, err := inf.Broker.Produce("tweets", "poison", []byte("{not json")); err != nil {
			t.Fatal(err)
		}
	}
	tweets := genTweets(t, inf, 200, 2)
	stats, err := inf.IngestTweets(tweets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stored != 200 || stats.DeadLettered != 3 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Streamed != 203 {
		t.Fatalf("streamed = %d", stats.Streamed)
	}
	letters, err := inf.DeadLetters("tweets")
	if err != nil {
		t.Fatal(err)
	}
	if len(letters) != 3 {
		t.Fatalf("dead letters = %d", len(letters))
	}
	for _, l := range letters {
		if l["stage"] != "decode" || l["body"] != "{not json" {
			t.Fatalf("letter = %+v", l)
		}
	}
}

// TestChaosIngestDeliversEverythingOnce: at a 10% injected fault rate on
// every seam, the hardened path still delivers every well-formed record
// exactly once — the E18 acceptance bar, at test scale.
func TestChaosIngestDeliversEverythingOnce(t *testing.T) {
	inf := bootSmall(t)
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 42, ErrorRate: 0.10}))
	tweets := genTweets(t, inf, 300, 3)
	stats, err := inf.IngestTweets(tweets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stored != 300 || stats.Dropped != 0 || stats.DeadLettered != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Retries == 0 {
		t.Fatal("no retries at 10% fault rate")
	}
	docs, err := inf.DocDB.Collection("tweets").Find(docstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]int)
	for _, d := range docs {
		ids[d["id"].(string)]++
	}
	if len(ids) != 300 {
		t.Fatalf("distinct tweets stored = %d", len(ids))
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("tweet %s stored %d times", id, n)
		}
	}
	// Backoff ran only on the simulated clock.
	if inf.Clock.Slept() == 0 {
		t.Fatal("retries recorded no simulated backoff")
	}
}

// TestNaivePolicyLosesRecordsUnderChaos: with retries disabled the same
// fault rate visibly breaks the pipeline — the contrast E18 measures.
func TestNaivePolicyLosesRecordsUnderChaos(t *testing.T) {
	inf := bootSmall(t)
	inf.Retry = retry.NewPolicy(retry.Config{MaxAttempts: 1, BaseDelay: time.Millisecond}, 7).
		WithClock(inf.Clock)
	inf.RedriveRounds = 0
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 42, ErrorRate: 0.10}))
	tweets := genTweets(t, inf, 300, 3)
	stats, err := inf.IngestTweets(tweets)
	if err == nil && stats.Stored == 300 {
		t.Fatalf("naive pipeline survived 10%% faults: %+v", stats)
	}
}

// TestChaosWazeAnd911 pushes the other two streaming paths through the same
// fault rate.
func TestChaosWazeAnd911(t *testing.T) {
	inf := bootSmall(t)
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 9, ErrorRate: 0.08}))
	rng := rand.New(rand.NewSource(4))
	reports, err := citydata.GenerateWaze(120, inf.Cameras, inf.Config().Epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := inf.IngestWaze(reports)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Stored != 120 || ws.Dropped != 0 || ws.DeadLettered != 0 {
		t.Fatalf("waze stats = %+v", ws)
	}
	calls, err := citydata.Generate911(80, inf.Config().Epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := inf.Ingest911(calls)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Stored != 80 || cs.Dropped != 0 || cs.DeadLettered != 0 {
		t.Fatalf("911 stats = %+v", cs)
	}
	inf.DisableChaos()
	if inf.Injector != nil {
		t.Fatal("chaos not detached")
	}
	// The bus stays metered after detach; underneath must be the raw broker
	// again, not the fault-injecting wrapper.
	mb, ok := inf.Bus.(*stream.MeteredBus)
	if !ok {
		t.Fatalf("bus after DisableChaos = %T, want *stream.MeteredBus", inf.Bus)
	}
	if mb.Unwrap() != stream.Bus(inf.Broker) {
		t.Fatalf("inner bus after DisableChaos = %T, want the raw broker", mb.Unwrap())
	}
}

// TestCrimeCellsDeterministicUnderWALFaults: fault draws are positional, so
// the order an incident's cells are written in decides which of them a
// dead-lettered incident leaves behind. Two runs at one seed must leave the
// same table — which a map-ordered write loop does not.
func TestCrimeCellsDeterministicUnderWALFaults(t *testing.T) {
	scan := func() ([]hbase.RowResult, PipelineStats) {
		inf := bootSmall(t)
		inf.Retry = retry.NewPolicy(retry.Config{MaxAttempts: 1, BaseDelay: time.Millisecond}, 7).
			WithClock(inf.Clock)
		inf.RedriveRounds = 0
		inf.EnableChaos(faults.NewInjector(faults.Config{
			Seed: 42, ErrorRate: 0.05, TargetOps: []string{"hbase.wal"},
		}))
		ccfg := citydata.DefaultCrimeConfig(inf.Config().Epoch)
		ccfg.Count = 120
		incidents, err := citydata.GenerateCrimes(ccfg, inf.Gang.Nodes(), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := inf.IngestCrimes(incidents, "")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := inf.CrimeTab.Scan("", "")
		if err != nil {
			t.Fatal(err)
		}
		return rows, stats
	}
	first, stats := scan()
	if stats.DeadLettered < 5 {
		t.Fatalf("only %d incidents dead-lettered; the test needs partial rows: %+v", stats.DeadLettered, stats)
	}
	for run := 0; run < 3; run++ {
		again, againStats := scan()
		if againStats != stats || !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d left a different crimes table at the same seed (stats %+v vs %+v)", run, againStats, stats)
		}
	}
}
