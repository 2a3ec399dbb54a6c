package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/citydata"
	"repro/internal/docstore"
	"repro/internal/flume"
	"repro/internal/geo"
	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// PipelineStats counts one ingestion run (Fig. 4 report).
type PipelineStats struct {
	Collected    int // events produced by collectors
	Streamed     int // records that crossed the broker
	Stored       int // documents/cells written to NoSQL stores
	Dropped      int // records lost outright — neither stored nor quarantined
	DeadLettered int // records parked in the dead-letter collection for replay
	Retries      int // delivery attempts beyond the first, across all seams
}

// storageGroup is the broker consumer group used by the storage tier.
const storageGroup = "storage-tier"

// headerTraceID resolves the trace id propagated on a record's or event's
// headers, falling back to the given id (the active ingest's) for records
// produced before propagation existed, or by other producers.
func headerTraceID(headers map[string]string, fallback string) string {
	if ctx, ok := telemetry.Extract(headers); ok {
		return ctx.TraceID
	}
	return fallback
}

// feed declares one Fig. 4 docstore feed. The collection → stream → NoSQL
// path is the same for all of them; a feed is only the data that differs:
// where its records go and how one record becomes a broker message and a
// stored document.
type feed[T any] struct {
	source string // trace source of one run
	topic  string // broker topic, docstore collection and dead-letter source
	key    func(*T) string
	id     func(*T) string
	// doc writes one record's fields into d. It fills a map the drain
	// reuses (every feed sets the same keys on every record, and Insert
	// stores a copy): a map returned through a func value would be a heap
	// allocation per record.
	doc func(item *T, d docstore.Document)
}

var tweetFeed = feed[citydata.Tweet]{
	source: "ingest-tweets", topic: "tweets",
	key: func(tw *citydata.Tweet) string { return tw.Author },
	id:  func(tw *citydata.Tweet) string { return tw.ID },
	doc: func(tw *citydata.Tweet, d docstore.Document) {
		d["id"] = tw.ID
		d["author"] = tw.Author
		d["text"] = tw.Text
		d["unixTime"] = float64(tw.Time.Unix())
		d["loc"] = tw.Location
	},
}

var wazeFeed = feed[citydata.WazeReport]{
	source: "ingest-waze", topic: "waze",
	key: func(r *citydata.WazeReport) string { return string(r.Kind) },
	id:  func(r *citydata.WazeReport) string { return r.ID },
	doc: func(r *citydata.WazeReport, d docstore.Document) {
		d["id"] = r.ID
		d["kind"] = string(r.Kind)
		d["severity"] = r.Severity
		d["speedKmh"] = r.SpeedKmh
		d["unixTime"] = float64(r.Time.Unix())
		d["loc"] = r.Location
		d["user"] = r.UserReport
	},
}

var call911Feed = feed[citydata.Call911]{
	source: "ingest-911", topic: "calls911",
	key: func(c *citydata.Call911) string { return c.Category },
	id:  func(c *citydata.Call911) string { return c.ID },
	doc: func(c *citydata.Call911, d docstore.Document) {
		d["id"] = c.ID
		d["category"] = c.Category
		d["priority"] = c.Priority
		d["unixTime"] = float64(c.Time.Unix())
		d["loc"] = c.Location
	},
}

// IngestTweets runs the Fig. 4 collection path for tweets: a Flume agent
// pumps the collector output into the stream broker; the storage tier
// drains the topic into the document store with geo and author indexes.
//
// The path degrades instead of dying: the agent delivers through the shared
// retry policy into a per-event idempotent sink (a batch retry never
// re-produces its successful prefix), batches that exhaust their retries are
// parked in a dead-letter queue and redriven up to RedriveRounds times, and
// records that cannot be decoded or stored are quarantined to the
// dead-letter collection while the drain keeps going.
func (inf *Infrastructure) IngestTweets(tweets []citydata.Tweet) (PipelineStats, error) {
	return ingestFeed(inf, &tweetFeed, tweets, produceViaFlume)
}

// IngestWaze streams crowd-sourced traffic reports into the document store,
// with the same quarantine-and-continue semantics as the tweet path.
func (inf *Infrastructure) IngestWaze(reports []citydata.WazeReport) (PipelineStats, error) {
	return ingestFeed(inf, &wazeFeed, reports, produceDirect[citydata.WazeReport])
}

// Ingest911 streams emergency calls through the broker into the document
// store — the same collection → stream → NoSQL path as tweets and waze,
// rather than a side door straight into storage.
func (inf *Infrastructure) Ingest911(calls []citydata.Call911) (PipelineStats, error) {
	return ingestFeed(inf, &call911Feed, calls, produceDirect[citydata.Call911])
}

// ingestFeed is one run of a feed: the feed's produce side puts the items
// on its topic, then the storage tier drains the topic into the docstore.
func ingestFeed[T any](inf *Infrastructure, f *feed[T], items []T,
	produce func(*Infrastructure, *feed[T], ingestRun, []T, *PipelineStats) error) (PipelineStats, error) {
	run := inf.beginIngest(f.source)
	stats := PipelineStats{Collected: len(items)}
	defer run.end(&stats)
	err := produce(inf, f, run, items, &stats)
	if err == nil {
		err = drainFeed(inf, f, run, &stats)
	}
	return stats, err
}

// produceDirect is the collector-less produce side: each item goes straight
// onto the topic under the shared policy, and an item whose produce keeps
// failing is quarantined while the rest continue.
func produceDirect[T any](inf *Infrastructure, f *feed[T], run ingestRun, items []T, stats *PipelineStats) error {
	st := openStage(run.root, "stream", "fog", inf.profStream)
	defer st.End()
	hdrs := run.ctx.Inject(nil)
	for i := range items {
		item := &items[i]
		body, err := json.Marshal(item)
		if err != nil {
			return fmt.Errorf("marshal %s: %w", f.topic, err)
		}
		if err := inf.produceWithRetry(stats, f.topic, f.key(item), body, hdrs); err != nil {
			inf.deadLetter(stats, f.topic, "produce", f.id(item), body, err, run.ctx.TraceID)
		}
	}
	return nil
}

// produceViaFlume is the tweet feed's produce side: a Flume agent pumps the
// collected events through an idempotent sink into the broker, and batches
// that exhaust their retries are redriven from a dead-letter queue.
func produceViaFlume(inf *Infrastructure, f *feed[citydata.Tweet], run ingestRun, tweets []citydata.Tweet, stats *PipelineStats) error {
	events, err := collectEvents(inf, f, run, tweets)
	if err != nil {
		return err
	}
	st := openStage(run.root, "stream", "fog", inf.profStream)
	defer st.End()
	sink := flume.NewDedupSink(
		func(e flume.Event) string { return e.Headers["id"] },
		func(e flume.Event) error {
			_, _, err := inf.Bus.ProduceH(f.topic, e.Headers["author"], e.Body, e.Headers)
			return err
		},
	)
	dlq := retry.NewDLQ[flume.Event]()
	agent := flume.NewAgent("twitter-collector", flume.NewSliceSource(events), sink,
		flume.Config{BatchSize: 64, Retry: inf.Retry, DeadLetter: dlq, Telemetry: inf.flumeTel})
	for !agent.Drained() {
		// A pump error means a batch exhausted its retries; those events are
		// in the DLQ, and the agent has already moved past them.
		_, _ = agent.Pump(16)
	}
	// The agent's own counter, not a policy-wide diff (see retried).
	stats.Retries += agent.Metrics().Retries
	inf.redrive(dlq, sink, stats, f.topic)
	return nil
}

// collectEvents is the edge-side collector: one flume event per tweet. The
// root's trace context rides the event headers, which the sink forwards onto
// the broker record — so the storage tier on the far side of the hop can
// continue this trace.
func collectEvents(inf *Infrastructure, f *feed[citydata.Tweet], run ingestRun, tweets []citydata.Tweet) ([]flume.Event, error) {
	st := openStage(run.root, "collect", "edge", inf.profCollect)
	defer st.End()
	events := make([]flume.Event, len(tweets))
	for i := range tweets {
		tw := &tweets[i]
		body, err := json.Marshal(tw)
		if err != nil {
			return nil, fmt.Errorf("marshal %s: %w", f.topic, err)
		}
		events[i] = flume.Event{
			Headers: run.ctx.Inject(map[string]string{"author": f.key(tw), "id": f.id(tw)}),
			Body:    body,
		}
	}
	return events, nil
}

// drainFeed is the storage tier: it drains the feed's topic into its
// docstore collection. The store span continues the trace context propagated
// on the first polled record, joining the producer's causal tree across the
// broker hop.
func drainFeed[T any](inf *Infrastructure, f *feed[T], run ingestRun, stats *PipelineStats) error {
	st := stage{prof: inf.profStore.Start()}
	defer func() { st.End() }()
	col := inf.DocDB.Collection(f.topic)
	doc := make(docstore.Document, 8)
	for {
		// The flaky bus decides faults before any offsets move, so retrying
		// a failed poll never skips records.
		var recs []stream.Record
		err := inf.retried(stats, func() (e error) {
			recs, e = inf.Bus.Poll(storageGroup, f.topic, 256)
			return e
		})
		if err != nil {
			return fmt.Errorf("poll %s: %w", f.topic, err)
		}
		if len(recs) == 0 {
			return nil
		}
		if st.span == nil {
			st.span = inf.remoteTierSpan(recs[0].Headers, run.root, "store", "server")
		}
		stats.Streamed += len(recs)
		for _, r := range recs {
			var item T
			if err := json.Unmarshal(r.Value, &item); err != nil {
				inf.deadLetter(stats, f.topic, "decode", r.Key, r.Value, err, headerTraceID(r.Headers, run.ctx.TraceID))
				continue
			}
			f.doc(&item, doc)
			if err := inf.insertDoc(stats, col, doc); err != nil {
				inf.deadLetter(stats, f.topic, "store", f.id(&item), r.Value, err, headerTraceID(r.Headers, run.ctx.TraceID))
				continue
			}
			stats.Stored++
		}
		// The batch is fully handled (stored or quarantined), so advance the
		// group's committed offsets; a consumer crash before this line would
		// redeliver the batch instead of losing it.
		if err := inf.Bus.CommitPolled(storageGroup, f.topic); err != nil {
			return fmt.Errorf("commit %s: %w", f.topic, err)
		}
	}
}

// redrive replays dead-lettered flume events through the idempotent sink.
// Events still failing after RedriveRounds are quarantined; events the sink
// already delivered are skipped by the dedup layer, so a redrive never
// duplicates. The retries it spends are charged to stats.
func (inf *Infrastructure) redrive(dlq *retry.DLQ[flume.Event], sink *flume.DedupSink, stats *PipelineStats, source string) {
	for round := 0; round < inf.RedriveRounds && dlq.Len() > 0; round++ {
		for _, l := range dlq.Drain() {
			attempts := 0
			err := inf.retried(stats, func() error {
				attempts++
				return sink.Deliver([]flume.Event{l.Item})
			})
			if err != nil {
				dlq.Add(l.Item, err, l.Attempts+attempts)
			}
		}
	}
	for _, l := range dlq.Drain() {
		inf.deadLetter(stats, source, "produce", l.Item.Headers["id"], l.Item.Body, errors.New(l.Cause),
			headerTraceID(l.Item.Headers, ""))
	}
}

// crimeRowKey builds HBase row keys that cluster by district then time, so
// district scans are contiguous.
func crimeRowKey(inc *citydata.Incident) string {
	return districtPrefix(inc.District) + inc.Time.UTC().Format(time.RFC3339) + "|" + inc.ReportNumber
}

// districtPrefix is the row-key prefix of one district's crimes: "d", the
// district zero-padded to two digits, "|".
func districtPrefix(district int) string {
	if district >= 0 && district < 10 {
		return "d0" + strconv.Itoa(district) + "|"
	}
	return "d" + strconv.Itoa(district) + "|"
}

// IngestCrimes writes incidents to the HBase crimes table (random-access
// path) and archives the raw batch into HDFS (batch path) — both sides of
// the paper's HDFS/HBase contrast. Each cell write goes through the shared
// retry policy; an incident whose writes keep failing is quarantined whole
// and the batch continues.
func (inf *Infrastructure) IngestCrimes(incidents []citydata.Incident, archivePath string) (PipelineStats, error) {
	stats := PipelineStats{Collected: len(incidents)}
	run := inf.beginIngest("ingest-crimes")
	defer run.end(&stats)

	store := openStage(run.root, "store", "server", inf.profStore)
	for i := range incidents {
		inc := &incidents[i]
		if err := inf.putIncident(&stats, inc); err != nil {
			raw, _ := json.Marshal(inc)
			inf.deadLetter(&stats, "crimes", "hbase", inc.ReportNumber, raw, err, run.ctx.TraceID)
		}
	}
	store.End()
	if archivePath != "" {
		archive := openStage(run.root, "archive", "cloud", inf.profArchive)
		defer archive.End()
		raw, err := json.Marshal(incidents)
		if err != nil {
			return stats, fmt.Errorf("marshal archive: %w", err)
		}
		if err := inf.retried(&stats, func() error { return inf.HDFS.Write(archivePath, raw) }); err != nil {
			return stats, fmt.Errorf("archive crimes: %w", err)
		}
	}
	return stats, nil
}

// putIncident writes one incident's row cell by cell and stops at the first
// cell that cannot be written. The cells go in a fixed order: fault draws
// are positional, so the order decides which cells a failed incident leaves
// behind, and that must repeat per seed.
func (inf *Infrastructure) putIncident(stats *PipelineStats, inc *citydata.Incident) error {
	row := crimeRowKey(inc)
	meta := [...]struct{ qualifier, value string }{
		{"offense", string(inc.Offense)},
		{"code", inc.OffenseCode},
		{"address", inc.Address},
		{"district", strconv.Itoa(inc.District)},
		{"time", inc.Time.UTC().Format(time.RFC3339)},
		{"agency", inc.Agency},
		{"lat", strconv.FormatFloat(inc.Location.Lat, 'f', 6, 64)},
		{"lon", strconv.FormatFloat(inc.Location.Lon, 'f', 6, 64)},
	}
	for _, c := range meta {
		if err := inf.putCell(stats, inf.CrimeTab, row, "meta", c.qualifier, []byte(c.value)); err != nil {
			return err
		}
		stats.Stored++
	}
	for i, p := range inc.Persons {
		if err := inf.putCell(stats, inf.CrimeTab, row, "persons", strconv.Itoa(i), []byte(p.Role+":"+p.ID)); err != nil {
			return err
		}
		stats.Stored++
	}
	return nil
}

// TweetsNear returns stored tweets within radiusKm of center posted in
// [from, to].
func (inf *Infrastructure) TweetsNear(center geo.Point, radiusKm float64, from, to time.Time) ([]docstore.Document, error) {
	return inf.DocDB.Collection("tweets").Find(docstore.Query{Conditions: []docstore.Condition{
		docstore.GeoWithin("loc", center, radiusKm),
		docstore.Range("unixTime", float64(from.Unix()), float64(to.Unix())),
	}})
}

// CrimesInDistrict returns the crimes table's row keys for one district.
func (inf *Infrastructure) CrimesInDistrict(district int) ([]string, error) {
	return inf.CrimeTab.RowKeys(districtPrefix(district))
}
