package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/flume"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/retry"
	"repro/internal/stream"
)

// perLayer lists what a traced run reports; the prefix is the module under
// internal/. A metric whose layer the workload does not exercise reads 0.
// Three sources, all outside the program: spans around the harness's own
// calls and the bus, each layer replayed alone on a fresh instance with the
// calls the workload made to it, and probes and public counters read off the
// end-of-run state.
var perLayer = []metricDef{
	{"hbase.replay_put_us", "us"},
	{"hbase.replay_share", "share"},
	{"hbase.flushes", "count"},
	{"hbase.compactions", "count"},
	{"hbase.store_files", "count"},
	{"hbase.get_us", "us"},
	{"hdfs.replay_write_us", "us"},
	{"hdfs.block_writes_per_item", "count"},
	{"hdfs.blocks", "count"},
	{"hdfs.stored_mb", "MB"},
	{"stream.produce_us", "us"},
	{"stream.poll_us", "us"},
	{"stream.commit_us", "us"},
	{"stream.calls_per_item", "count"},
	{"stream.records_per_poll", "count"},
	{"stream.bus_share", "share"},
	{"stream.replay_us_per_item", "us"},
	{"stream.tick_us", "us"},
	{"docstore.replay_insert_us", "us"},
	{"docstore.docs", "count"},
	{"flume.replay_us_per_event", "us"},
	{"core.glue_us_per_item", "us"},
	{"core.ingest_tweets_us_per_record", "us"},
	{"core.ingest_waze_us_per_record", "us"},
	{"core.ingest_911_us_per_record", "us"},
	{"core.ingest_crimes_us_per_incident", "us"},
	{"core.monitor_tick_us", "us"},
	{"core.monitor_tick_share", "share"},
	{"core.fleet_tick_us", "us"},
	{"tsdb.scrape_us", "us"},
	{"tsdb.alerts_eval_us", "us"},
	{"tsdb.series", "count"},
	{"telemetry.snapshot_us", "us"},
	{"profile.tick_us", "us"},
	{"incident.tick_us", "us"},
	{"control.tick_us", "us"},
	{"profile.ingest_coverage_share", "share"},
	{"retry.retries_per_item", "count"},
	{"retry.short_circuits", "count"},
	{"retry.breaker_opens", "count"},
	{"faults.injected_errors", "count"},
	{"web.health_us", "us"},
	{"web.cameras_us", "us"},
	{"web.cameras_near_us", "us"},
	{"web.query_rate_us", "us"},
	{"web.query_sumby_us", "us"},
	{"web.metrics_us", "us"},
	{"web.tweets_near_us", "us"},
	{"web.crimes_district_us", "us"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
}

// layerCounts is how much each store held when the timed phase began, so
// that a replay can rebuild the preload untimed and time only what the
// timed phase added.
type layerCounts struct {
	videoPuts, crimePuts int
	features, archives   int // HDFS files under featuresDir, and elsewhere outside /hbase
	docs                 map[string]int
	blockWrites          int64
}

func countLayers(inf *core.Infrastructure) layerCounts {
	features, archives := dataFiles(inf.HDFS)
	c := layerCounts{
		videoPuts:   inf.VideoTab.Stats().WALAppends,
		crimePuts:   inf.CrimeTab.Stats().WALAppends,
		features:    len(features),
		archives:    len(archives),
		docs:        map[string]int{},
		blockWrites: inf.HDFS.Counters().BlockWrites,
	}
	for _, name := range inf.DocDB.Collections() {
		c.docs[name] = inf.DocDB.Collection(name).Count()
	}
	return c
}

// dataFiles lists what the pipelines archived, in path order: feature maps,
// and everything else outside /hbase. The store files under /hbase are left
// out because the hbase replay writes them again.
func dataFiles(fs *hdfs.Cluster) (features, archives []string) {
	for _, p := range fs.List() {
		switch {
		case strings.HasPrefix(p, featuresDir+"/"):
			features = append(features, p)
		case !strings.HasPrefix(p, "/hbase/"):
			archives = append(archives, p)
		}
	}
	return features, archives
}

// calls holds the duration of each call a replay or a probe made, in ns.
type calls []int64

func (c calls) total() time.Duration {
	var sum int64
	for _, d := range c {
		sum += d
	}
	return time.Duration(sum)
}

func (c calls) medianUs() float64 {
	if len(c) == 0 {
		return 0
	}
	s := append(calls(nil), c...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e3
}

// timeFrom calls fn for 0..n-1 and appends to c the duration of each call
// from index from on; the calls before it rebuild the state the timed phase
// started with. One clock reading per call: a call lasts from the previous
// reading to the next.
func (c calls) timeFrom(n, from int, fn func(i int) error) (calls, error) {
	var last time.Time
	for i := 0; i < n; i++ {
		if i == from {
			last = time.Now()
		}
		if err := fn(i); err != nil {
			return c, err
		}
		if i >= from {
			now := time.Now()
			c = append(c, int64(now.Sub(last)))
			last = now
		}
	}
	return c, nil
}

const probes = 20

func layerMetrics(cfg runConfig, d driver, m *meter, base layerCounts, before, after phase, elapsed time.Duration) (map[string]float64, error) {
	inf := d.infra()
	items := float64(m.items)
	v := map[string]float64{}

	// Spans.
	var by [numSpanNames]calls
	self := m.rec.selfTimes()
	ingestSelf := map[int32]int64{} // per root span: Ingest* time that is not the bus
	for i, s := range m.rec.spans {
		by[s.name] = append(by[s.name], s.end-s.start)
		if s.name.isIngest() {
			ingestSelf[s.trace] += self[i]
		}
	}
	for name, metric := range map[spanName]string{
		spProduce: "stream.produce_us", spPoll: "stream.poll_us", spCommit: "stream.commit_us",
		spMonitorTick: "core.monitor_tick_us", spGet: "hbase.get_us",
		spHealth: "web.health_us", spCameras: "web.cameras_us", spCamerasNear: "web.cameras_near_us",
		spQueryRate: "web.query_rate_us", spQuerySumBy: "web.query_sumby_us", spMetrics: "web.metrics_us",
		spTweetsNear: "web.tweets_near_us", spCrimesDistrict: "web.crimes_district_us",
	} {
		v[metric] = by[name].medianUs()
	}
	for name, metric := range map[spanName]string{
		spIngestTweets: "core.ingest_tweets_us_per_record", spIngestWaze: "core.ingest_waze_us_per_record",
		spIngest911: "core.ingest_911_us_per_record", spIngestCrimes: "core.ingest_crimes_us_per_incident",
	} {
		if n := m.records[name]; n > 0 {
			v[metric] = us(by[name].total()) / float64(n)
		}
	}
	bus := by[spProduce].total() + by[spPoll].total() + by[spCommit].total()
	v["stream.calls_per_item"] = float64(len(by[spProduce])+len(by[spPoll])+len(by[spCommit])) / items
	if polls := len(by[spPoll]); polls > 0 {
		v["stream.records_per_poll"] = float64(m.rec.polled) / float64(polls)
	}
	v["stream.bus_share"] = bus.Seconds() / elapsed.Seconds()
	v["core.monitor_tick_share"] = by[spMonitorTick].total().Seconds() / elapsed.Seconds()
	v["trace.spans"] = float64(len(m.rec.spans))
	v["trace.overhead_share"] = 1 - items/elapsed.Seconds()/cfg.untraced

	// Counters.
	video, crime := inf.VideoTab.Stats(), inf.CrimeTab.Stats()
	v["hbase.flushes"] = float64(video.Flushes + crime.Flushes)
	v["hbase.compactions"] = float64(video.Compactions + crime.Compactions)
	v["hbase.store_files"] = float64(video.StoreFiles + crime.StoreFiles)
	fs := inf.HDFS.Status()
	v["hdfs.blocks"] = float64(fs.Blocks)
	v["hdfs.stored_mb"] = float64(fs.StoredBytes) / mb
	v["hdfs.block_writes_per_item"] = float64(inf.HDFS.Counters().BlockWrites-base.blockWrites) / items
	for _, name := range inf.DocDB.Collections() {
		v["docstore.docs"] += float64(inf.DocDB.Collection(name).Count())
	}
	v["tsdb.series"] = float64(len(inf.TSDB.Inventory()))
	v["retry.retries_per_item"] = float64(m.stats.Retries) / items
	v["retry.short_circuits"] = float64(inf.Retry.Stats().ShortCircuits)
	v["retry.breaker_opens"] = float64(inf.Breaker.Stats().Opened)
	if inf.Injector != nil {
		v["faults.injected_errors"] = float64(inf.Injector.Totals().Errors)
	}
	v["profile.ingest_coverage_share"] = (after.ingest - before.ingest) / m.ingest.Seconds()
	v["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / (after.cpu - before.cpu).Seconds()
	v["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	// HeapSys only grows, so at the end it still shows the peak the heap,
	// garbage included, reached.
	v["runtime.heap_peak_mb"] = float64(after.mem.HeapSys) / mb

	// Layer replays, before the probes below disturb the end state.
	puts, err := replayHBase(inf, base, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("hbase replay: %w", err)
	}
	v["hbase.replay_put_us"] = puts.medianUs()
	v["hbase.replay_share"] = puts.total().Seconds() / elapsed.Seconds()
	writes, err := replayHDFS(inf, base, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("hdfs replay: %w", err)
	}
	v["hdfs.replay_write_us"] = writes.medianUs()
	streamTime, err := replayStream(inf, m.rec.ops)
	if err != nil {
		return nil, fmt.Errorf("stream replay: %w", err)
	}
	v["stream.replay_us_per_item"] = us(streamTime) / items
	events, flumeTime := replayFlume(inf, m.rec.ops, cfg.seed)
	if events > 0 {
		v["flume.replay_us_per_event"] = us(flumeTime) / float64(events)
	}
	inserts, err := replayDocstore(inf, base)
	if err != nil {
		return nil, fmt.Errorf("docstore replay: %w", err)
	}
	v["docstore.replay_insert_us"] = inserts.medianUs()

	// Glue is what the typical item spends in Ingest* outside the bus and
	// the stores: JSON, headers, the retry envelope, and the tracer,
	// profiler and fleet taxes. Medians, because the mean item is the
	// compaction stalls, whose replay is no steadier than the stalls are.
	roots := make(calls, 0, len(ingestSelf))
	for _, ns := range ingestSelf {
		roots = append(roots, ns)
	}
	v["core.glue_us_per_item"] = (roots.medianUs()*float64(len(roots)) -
		float64(len(puts))*v["hbase.replay_put_us"] -
		float64(len(writes))*v["hdfs.replay_write_us"] -
		float64(len(inserts))*v["docstore.replay_insert_us"] -
		float64(events)*v["flume.replay_us_per_event"]) / items

	// Probes: each phase of MonitorTick, in its order, on the end state.
	phases := []struct {
		metric string
		call   func()
	}{
		{"stream.tick_us", inf.Broker.Tick},
		{"profile.tick_us", inf.Profiler.Tick},
		{"core.fleet_tick_us", inf.Fleet.Tick},
		{"tsdb.scrape_us", func() { inf.TSDB.Scrape() }},
		{"tsdb.alerts_eval_us", inf.Alerts.Eval},
		{"incident.tick_us", inf.Incidents.Tick},
		{"control.tick_us", inf.Control.Tick},
		{"telemetry.snapshot_us", func() { inf.Telemetry.Snapshot() }},
	}
	took := make([]calls, len(phases))
	for i := 0; i < probes; i++ {
		inf.Clock.Advance(inf.ScrapeInterval)
		for j, p := range phases {
			t0 := time.Now()
			p.call()
			took[j] = append(took[j], int64(time.Since(t0)))
		}
	}
	for j, p := range phases {
		v[p.metric] = took[j].medianUs()
	}
	return v, nil
}

// freshHDFS builds an empty cluster the way core.New does.
func freshHDFS(cfg core.Config, seed int64) (*hdfs.Cluster, error) {
	fs := hdfs.NewCluster(hdfs.Config{BlockSize: cfg.BlockSize, Replication: cfg.Replication}, rand.New(rand.NewSource(seed)))
	for i := 0; i < cfg.DataNodes; i++ {
		if err := fs.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// replayHBase puts every cell the two tables hold into fresh tables over a
// fresh HDFS, in the order the puts were acknowledged: a table stamps each
// put from its own counter, and these workloads never overwrite a cell, so
// a full scan sorted by timestamp is the put log. Flushes, compactions and
// the store files they write are part of the layer and of the time.
func replayHBase(inf *core.Infrastructure, base layerCounts, seed int64) (puts calls, err error) {
	fs, err := freshHDFS(inf.Config(), seed)
	if err != nil {
		return nil, err
	}
	for _, t := range []struct {
		tab     *hbase.Table
		preload int
	}{{inf.VideoTab, base.videoPuts}, {inf.CrimeTab, base.crimePuts}} {
		rows, err := t.tab.Scan("", "")
		if err != nil {
			return nil, err
		}
		var (
			cells    []hbase.Cell
			families []string
			seen     = map[string]bool{}
		)
		for _, r := range rows {
			for _, c := range r.Cells {
				cells = append(cells, c)
				if !seen[c.Family] {
					seen[c.Family] = true
					families = append(families, c.Family)
				}
			}
		}
		if len(cells) == 0 {
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].Timestamp < cells[j].Timestamp })
		fresh, err := hbase.NewTable(t.tab.Name(), families, hbase.DefaultConfig(), fs)
		if err != nil {
			return nil, err
		}
		puts, err = puts.timeFrom(len(cells), t.preload, func(i int) error {
			c := cells[i]
			return fresh.Put(c.Row, c.Family, c.Qualifier, c.Value)
		})
		if err != nil {
			return nil, err
		}
	}
	return puts, nil
}

// replayHDFS writes the archived files again, byte for byte, to a fresh
// cluster: feature maps in the order their frames were sent (the body names
// camera and sweep), then the other archives in path order, which is the
// order the harness numbered them in.
func replayHDFS(inf *core.Infrastructure, base layerCounts, seed int64) (writes calls, err error) {
	fs, err := freshHDFS(inf.Config(), seed)
	if err != nil {
		return nil, err
	}
	camera := map[string]int{}
	for i, c := range inf.Cameras {
		camera[c.ID] = i
	}
	features, archives := dataFiles(inf.HDFS)
	for _, kind := range []struct {
		paths   []string
		preload int
		sent    bool // order by the frame in the body
	}{{features, base.features, true}, {archives, base.archives, false}} {
		data := make([][]byte, len(kind.paths))
		order := make([]int, len(kind.paths))
		for i, p := range kind.paths {
			if data[i], err = inf.HDFS.Read(p); err != nil {
				return nil, err
			}
			order[i] = i
		}
		if kind.sent {
			sentAt := make([]int, len(data))
			for i, body := range data {
				var f core.FrameEvent
				if err := json.Unmarshal(body, &f); err != nil {
					return nil, fmt.Errorf("%s: %w", kind.paths[i], err)
				}
				sentAt[i] = f.Seq*len(inf.Cameras) + camera[f.CameraID]
			}
			sort.Slice(order, func(i, j int) bool { return sentAt[order[i]] < sentAt[order[j]] })
		}
		writes, err = writes.timeFrom(len(order), kind.preload, func(i int) error {
			return fs.Write(kind.paths[order[i]], data[order[i]])
		})
		if err != nil {
			return nil, err
		}
	}
	return writes, nil
}

// replayStream makes the bus calls of the timed phase, in order, on a fresh
// cluster shaped like the live one.
func replayStream(inf *core.Infrastructure, ops []busOp) (time.Duration, error) {
	cfg := inf.Config()
	clock := retry.NewManualClock(cfg.Epoch)
	c, err := stream.NewCluster(stream.ClusterConfig{Nodes: inf.Broker.NodeCount(), Replication: cfg.Replication, Now: clock.Now})
	if err != nil {
		return 0, err
	}
	for _, topic := range inf.Broker.Topics() {
		n, err := inf.Broker.Partitions(topic)
		if err != nil {
			return 0, err
		}
		if err := c.CreateTopic(topic, n); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for _, op := range ops {
		switch op.kind {
		case spProduce:
			_, _, err = c.ProduceH(op.topic, op.key, op.value, op.headers)
		case spPoll:
			_, err = c.Poll(op.key, op.topic, op.max)
		case spCommit:
			err = c.CommitPolled(op.key, op.topic)
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// replayFlume pumps the tweet events of each IngestTweets call through an
// agent configured as that call configures it, into a sink that does
// nothing. The events are the ones the live sink produced to the bus.
func replayFlume(inf *core.Infrastructure, ops []busOp, seed int64) (events int, took time.Duration) {
	var batches [][]flume.Event
	last := int32(0)
	for _, op := range ops {
		if op.kind != spProduce || op.topic != "tweets" {
			continue
		}
		if op.trace != last {
			batches = append(batches, nil)
			last = op.trace
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], flume.Event{Headers: op.headers, Body: op.value})
		events++
	}
	policy := retry.NewPolicy(retry.DefaultConfig(), seed).WithClock(retry.NewManualClock(inf.Config().Epoch))
	t0 := time.Now()
	for _, batch := range batches {
		sink := flume.NewDedupSink(
			func(e flume.Event) string { return e.Headers["id"] },
			func(flume.Event) error { return nil },
		)
		agent := flume.NewAgent("twitter-collector", flume.NewSliceSource(batch), sink,
			flume.Config{BatchSize: 64, Retry: policy, DeadLetter: retry.NewDLQ[flume.Event]()})
		for !agent.Drained() {
			_, _ = agent.Pump(16) // the sink cannot fail
		}
	}
	return events, time.Since(t0)
}

// replayDocstore inserts every document of every collection again, in
// insertion order, into a fresh collection indexed as core.New indexes it.
func replayDocstore(inf *core.Infrastructure, base layerCounts) (inserts calls, err error) {
	for _, name := range inf.DocDB.Collections() {
		all, err := inf.DocDB.Collection(name).Find(docstore.Query{})
		if err != nil {
			return nil, err
		}
		// Ids are "<collection>-<n>" with n counting inserts.
		seq := make([]int, len(all))
		order := make([]int, len(all))
		for i, d := range all {
			id, _ := d["_id"].(string)
			if seq[i], err = strconv.Atoi(strings.TrimPrefix(id, name+"-")); err != nil {
				return nil, fmt.Errorf("%s document id %q: %w", name, id, err)
			}
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return seq[order[i]] < seq[order[j]] })
		// A database per collection, so the previous copy can be collected.
		db := docstore.NewDatabase()
		tweets := db.Collection("tweets")
		tweets.CreateIndex("author")
		tweets.CreateGeoIndex("loc")
		db.Collection("waze").CreateGeoIndex("loc")
		db.Collection("calls911").CreateGeoIndex("loc")
		db.Collection("deadletter").CreateIndex("source")
		fresh := db.Collection(name)
		inserts, err = inserts.timeFrom(len(all), base.docs[name], func(i int) error {
			_, err := fresh.Insert(all[order[i]])
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return inserts, nil
}
