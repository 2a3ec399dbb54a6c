package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/faults"
	"repro/internal/retry"
)

// pinnedRun is what one feed run leaves behind: the pipeline's own stats,
// how many collected units reached their store (documents for the three
// docstore feeds, delivered frames for the camera path), the injector's
// error count, and the dead-letter collection's stage breakdown.
type pinnedRun struct {
	stats    PipelineStats
	units    int
	injected int
	stages   string
}

// TestFeedAccountingPinned pins, at seed 42, the exact delivery accounting
// of every feed that crosses the broker. The injector's draws are
// positional, so any change in the order or number of calls into a fault
// seam (bus produce/poll, docstore insert, HBase put, HDFS write, policy
// runs) moves these constants; they were captured before the ingest path
// was collapsed onto one pipeline and must survive it unchanged. Each feed
// runs under the default retry budget (5 % faults, nothing may be lost but
// the poison record) and under a one-attempt, one-redrive budget with
// two-call bursts, which forces every dead-letter stage to fire.
func TestFeedAccountingPinned(t *testing.T) {
	feeds := []struct {
		name, topic string
		n           int
		ingest      func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, int)
	}{
		{"tweets", "tweets", 300, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, int) {
			st, err := inf.IngestTweets(genTweets(t, inf, n, 3))
			if err != nil {
				t.Fatal(err)
			}
			return st, inf.DocDB.Collection("tweets").Count()
		}},
		{"waze", "waze", 200, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, int) {
			reports, err := citydata.GenerateWaze(n, inf.Cameras, inf.Config().Epoch, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			st, err := inf.IngestWaze(reports)
			if err != nil {
				t.Fatal(err)
			}
			return st, inf.DocDB.Collection("waze").Count()
		}},
		{"911", "calls911", 150, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, int) {
			calls, err := citydata.Generate911(n, inf.Config().Epoch, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			st, err := inf.Ingest911(calls)
			if err != nil {
				t.Fatal(err)
			}
			return st, inf.DocDB.Collection("calls911").Count()
		}},
		{"frames", "frames", 120, func(t *testing.T, inf *Infrastructure, n int) (PipelineStats, int) {
			rng := rand.New(rand.NewSource(6))
			frames := make([]FrameEvent, n)
			for i := range frames {
				frames[i] = FrameEvent{
					CameraID: fmt.Sprintf("cam-%02d", i%4), Seq: i,
					Class: "suv", Confidence: rng.Float64(), FeatureBytes: 4 << 10,
				}
			}
			st, err := inf.IngestFrames(frames, "/warehouse/pinned-feat")
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			for _, cs := range inf.Fleet.Report() {
				delivered += int(cs.Delivered)
			}
			return st.PipelineStats, delivered
		}},
	}
	want := map[string]pinnedRun{
		"tweets/default": {PipelineStats{Collected: 300, Streamed: 301, Stored: 300, DeadLettered: 1, Retries: 20}, 300, 28, "decode:1"},
		"tweets/tight":   {PipelineStats{Collected: 300, Streamed: 286, Stored: 276, DeadLettered: 25}, 276, 46, "decode:1 produce:15 store:9"},
		"waze/default":   {PipelineStats{Collected: 200, Streamed: 201, Stored: 200, DeadLettered: 1, Retries: 13}, 200, 20, "decode:1"},
		"waze/tight":     {PipelineStats{Collected: 200, Streamed: 189, Stored: 182, DeadLettered: 19}, 182, 32, "decode:1 produce:12 store:6"},
		"911/default":    {PipelineStats{Collected: 150, Streamed: 151, Stored: 150, DeadLettered: 1, Retries: 11}, 150, 18, "decode:1"},
		"911/tight":      {PipelineStats{Collected: 150, Streamed: 140, Stored: 135, DeadLettered: 16}, 135, 27, "decode:1 produce:11 store:4"},
		"frames/default": {PipelineStats{Collected: 120, Streamed: 121, Stored: 291, DeadLettered: 1, Retries: 22}, 120, 34, "decode:1"},
		"frames/tight":   {PipelineStats{Collected: 120, Streamed: 117, Stored: 253, DeadLettered: 19}, 102, 58, "decode:1 hbase:11 hdfs:3 produce:4"},
	}
	// The six cityinfra_broker_*_total counters after each run, in
	// brokerCounters order, as the separate metering and fault-injecting
	// decorators left them: the single pipeline bus must count the same.
	wantBroker := map[string][6]uint64{
		"tweets/default": {300, 11, 57817, 3, 0, 301},
		"tweets/tight":   {285, 20, 54938, 3, 0, 286},
		"waze/default":   {200, 7, 39732, 2, 0, 201},
		"waze/tight":     {188, 12, 37346, 2, 0, 189},
		"911/default":    {150, 6, 23859, 2, 0, 151},
		"911/tight":      {139, 11, 22117, 2, 0, 140},
		"frames/default": {120, 3, 14671, 240, 8, 121},
		"frames/tight":   {116, 4, 14183, 223, 18, 117},
	}
	for _, feed := range feeds {
		for _, budget := range []string{"default", "tight"} {
			name := feed.name + "/" + budget
			t.Run(name, func(t *testing.T) {
				inf := bootSmall(t)
				cfg := faults.Config{Seed: 42, ErrorRate: 0.05}
				if budget == "tight" {
					inf.Retry = retry.NewPolicy(retry.Config{MaxAttempts: 1, BaseDelay: time.Millisecond}, 7).
						WithClock(inf.Clock)
					inf.RedriveRounds = 1
					cfg.BurstLen = 2
				}
				inf.EnableChaos(faults.NewInjector(cfg))
				// One poison record per topic, keyed like a camera so the
				// frame path's fleet accounting attributes it.
				if _, _, err := inf.Broker.Produce(feed.topic, "cam-00", []byte("{not json")); err != nil {
					t.Fatal(err)
				}
				var got pinnedRun
				got.stats, got.units = feed.ingest(t, inf, feed.n)
				got.injected = inf.Injector.Totals().Errors
				got.stages = deadLetterStages(t, inf)

				// Conservation: every collected unit and the poison record
				// is stored, quarantined, or (never, here) dropped.
				st := got.stats
				if st.Collected != feed.n || st.Collected+1 != got.units+st.DeadLettered+st.Dropped {
					t.Errorf("conservation broken: collected %d + 1 poison != %d stored units + %d dead-lettered + %d dropped",
						st.Collected, got.units, st.DeadLettered, st.Dropped)
				}
				if got != want[name] {
					t.Errorf("accounting moved:\n got  %+v\n want %+v", got, want[name])
				}
				var broker [6]uint64
				for i, c := range brokerCounters {
					broker[i] = inf.Telemetry.Counter("cityinfra_broker_"+c+"_total", "").Value()
				}
				if broker != wantBroker[name] {
					t.Errorf("broker counters %v moved:\n got  %v\n want %v", brokerCounters, broker, wantBroker[name])
				}
			})
		}
	}
}

// brokerCounters names the pipeline bus's cityinfra_broker_<name>_total
// counters.
var brokerCounters = [6]string{"produce", "produce_errors", "produced_bytes", "poll", "poll_errors", "polled_records"}

// deadLetterStages renders the dead-letter collection as "stage:count ...".
func deadLetterStages(t *testing.T, inf *Infrastructure) string {
	t.Helper()
	letters, err := inf.DeadLetters("")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, l := range letters {
		counts[l["stage"].(string)]++
	}
	parts := make([]string, 0, len(counts))
	for stage, n := range counts {
		parts = append(parts, fmt.Sprintf("%s:%d", stage, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
