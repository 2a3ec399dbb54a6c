package core

import (
	"errors"
	"math"
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

// TestUnencodableRecordQuarantined: a record json.Marshal refuses is
// dead-lettered at stage "encode" — key the record id, empty body, the encode
// error as cause — and the rest of the batch is stored, on the direct path
// (Waze, a NaN speed) and the flume path (tweets, a year past 9999). Nothing
// of the batch is left on the topic for the next run to pick up.
func TestUnencodableRecordQuarantined(t *testing.T) {
	inf := bootSmall(t)
	reports, err := citydata.GenerateWaze(13, inf.Cameras, inf.Config().Epoch, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	reports[5].SpeedKmh = math.NaN()
	tweets := genTweets(t, inf, 13, 2)
	tweets[5].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := []struct {
		source, key string
		ingest      func(lo, hi int) (PipelineStats, error)
	}{
		{"waze", reports[5].ID, func(lo, hi int) (PipelineStats, error) { return inf.IngestWaze(reports[lo:hi]) }},
		{"tweets", tweets[5].ID, func(lo, hi int) (PipelineStats, error) { return inf.IngestTweets(tweets[lo:hi]) }},
	}
	for _, run := range runs {
		for _, batch := range []struct{ lo, hi, stored, deadLettered int }{{0, 10, 9, 1}, {10, 13, 3, 0}} {
			st, err := run.ingest(batch.lo, batch.hi)
			if err != nil {
				t.Fatalf("%s[%d:%d]: %v", run.source, batch.lo, batch.hi, err)
			}
			n := batch.hi - batch.lo
			if st.Collected != n || st.Streamed != batch.stored || st.Stored != batch.stored ||
				st.DeadLettered != batch.deadLettered || st.Dropped != 0 {
				t.Fatalf("%s[%d:%d]: stats = %+v", run.source, batch.lo, batch.hi, st)
			}
			if st.Collected != st.Stored+st.DeadLettered+st.Dropped {
				t.Fatalf("%s[%d:%d]: conservation broken: %+v", run.source, batch.lo, batch.hi, st)
			}
		}
		letters, err := inf.DeadLetters(run.source)
		if err != nil {
			t.Fatal(err)
		}
		if len(letters) != 1 {
			t.Fatalf("%s: dead letters = %v", run.source, letters)
		}
		l := letters[0]
		if l["stage"] != "encode" || l["key"] != run.key || l["body"] != "" || l["cause"] == "" {
			t.Fatalf("%s: letter = %+v", run.source, l)
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
	if inf.bus.inj != nil {
		t.Fatal("bus still draws faults after DisableChaos")
	}
}

// countingBus is a caller's wrapper on inf.Bus: it counts the produce and
// poll calls it forwards and the injected errors that come back.
type countingBus struct {
	stream.Bus
	produces, polls, injected int
}

func (b *countingBus) ProduceH(topic, key string, value []byte, headers map[string]string) (int, int64, error) {
	b.produces++
	p, off, err := b.Bus.ProduceH(topic, key, value, headers)
	if errors.Is(err, faults.ErrInjected) {
		b.injected++
	}
	return p, off, err
}

func (b *countingBus) Poll(group, topic string, max int) ([]stream.Record, error) {
	b.polls++
	recs, err := b.Bus.Poll(group, topic, max)
	if errors.Is(err, faults.ErrInjected) {
		b.injected++
	}
	return recs, err
}

// TestEnableChaosKeepsTheBus: toggling chaos swaps the injector, not the bus,
// so a wrapper installed on inf.Bus sees every pipeline produce and poll
// with chaos on and off, and injected errors still travel through it to the
// pipeline's retries.
func TestEnableChaosKeepsTheBus(t *testing.T) {
	inf := bootSmall(t)
	w := &countingBus{Bus: inf.Bus}
	inf.Bus = w
	counter := func(name string) int {
		return int(inf.Telemetry.Counter("cityinfra_broker_"+name+"_total", "").Value())
	}
	calls := func() (produces, polls int) {
		return counter("produce") + counter("produce_errors"), counter("poll") + counter("poll_errors")
	}

	inj := faults.NewInjector(faults.Config{Seed: 42, ErrorRate: 0.10, TargetOps: []string{"bus."}})
	inf.EnableChaos(inj)
	st, err := inf.IngestTweets(genTweets(t, inf, 200, 3))
	if err != nil || st.Stored != 200 {
		t.Fatalf("chaos ingest = %+v, %v", st, err)
	}
	if inf.Bus != stream.Bus(w) {
		t.Fatalf("EnableChaos replaced the bus with %T", inf.Bus)
	}
	produces, polls := calls()
	if w.produces == 0 || w.produces != produces || w.polls != polls {
		t.Fatalf("wrapper saw %d produces, %d polls; the bus counted %d, %d", w.produces, w.polls, produces, polls)
	}
	injected := inj.Stats()["bus.produce"].Errors + inj.Stats()["bus.poll"].Errors
	if injected == 0 || w.injected != injected || st.Retries < injected {
		t.Fatalf("wrapper saw %d injected errors, injector drew %d, pipeline retried %d", w.injected, injected, st.Retries)
	}

	inf.DisableChaos()
	before := w.injected
	st, err = inf.IngestTweets(genTweets(t, inf, 100, 4))
	if err != nil || st.Retries != 0 {
		t.Fatalf("clean ingest = %+v, %v", st, err)
	}
	produces, polls = calls()
	if inf.Bus != stream.Bus(w) || w.produces != produces || w.polls != polls {
		t.Fatalf("after DisableChaos the wrapper saw %d produces, %d polls; the bus counted %d, %d", w.produces, w.polls, produces, polls)
	}
	if w.injected != before {
		t.Fatalf("%d errors injected with chaos off", w.injected-before)
	}
}

// TestBusFaultSeam: under chaos the pipeline bus fails produce and poll with
// injected errors and counts them as errors, TargetKeys scopes produce
// faults to one camera's key, and direct sends to inf.Broker draw nothing.
func TestBusFaultSeam(t *testing.T) {
	inf := bootSmall(t)
	inj := faults.NewInjector(faults.Config{Seed: 5, ErrorRate: 1, TargetOps: []string{"bus."}})
	inf.EnableChaos(inj)
	if _, _, err := inf.Bus.Produce("frames", "cam-001", []byte("v")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("produce err = %v", err)
	}
	if _, err := inf.Bus.Poll("g", "frames", 10); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("poll err = %v", err)
	}
	for _, name := range []string{"produce_errors", "poll_errors"} {
		if got := inf.Telemetry.Counter("cityinfra_broker_"+name+"_total", "").Value(); got != 1 {
			t.Errorf("cityinfra_broker_%s_total = %d, want 1", name, got)
		}
	}
	if _, _, err := inf.Broker.Produce("frames", "cam-001", []byte("v")); err != nil {
		t.Fatalf("direct broker produce drew a fault: %v", err)
	}
	if st := inj.Stats(); st["bus.produce"].Calls != 1 || st["bus.poll"].Calls != 1 {
		t.Fatalf("injector stats = %+v, want one call per bus op", st)
	}

	// One camera's uplink partitioned: healthy keys pass untouched.
	inf.EnableChaos(faults.NewInjector(faults.Config{
		Seed: 9, BlackoutEvery: 1, BlackoutLen: 1,
		TargetOps: []string{"bus.produce"}, TargetKeys: []string{"cam-007"},
	}))
	for i := 0; i < 20; i++ {
		if _, _, err := inf.Bus.Produce("frames", "cam-001", []byte("v")); err != nil {
			t.Fatalf("untargeted camera produce %d: %v", i, err)
		}
	}
	if _, _, err := inf.Bus.Produce("frames", "cam-007", []byte("v")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("targeted camera err = %v, want injected", err)
	}
	if st := inf.Injector.Stats()["bus.produce"]; st.Calls != 1 || st.Blackouts != 1 {
		t.Fatalf("bus.produce stats = %+v, want exactly the targeted camera's call", st)
	}

	// Chaos off: the same calls pass through.
	inf.DisableChaos()
	if _, _, err := inf.Bus.Produce("frames", "cam-007", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if recs, err := inf.Bus.Poll("g", "frames", 100); err != nil || len(recs) != 22 {
		t.Fatalf("poll = %d records, %v; want 22", len(recs), err)
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
