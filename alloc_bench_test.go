package repro

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Allocation budgets for the pipeline's hot paths. The profiler's per-region
// allocs/op attribution (internal/profile) is only trustworthy if the paths
// it watches don't quietly grow their own allocation rates, so these gates
// pin ceilings: comfortably above today's measured allocs/op (so amortized
// slice growth and GC jitter don't flake) but tight enough that an
// accidental per-record marshal, map, or closure shows up as a test failure
// rather than a slow throughput bleed.
const (
	produceAllocBudget       = 2  // measured 1 alloc/op (the value copy) at RF 1 and RF 3
	pollCommitAllocBudget    = 4  // measured 1 alloc/op for poll(1)+commit
	pollBatchAllocBudget     = 1  // measured 1 alloc/op for poll(256)+commit: the batch
	frameIngestAllocBudget   = 13 // measured 11 allocs/frame through all 4 tiers (was 16)
	frameArchiveAllocBudget  = 17 // measured 15 allocs/frame with the feature map archived to HDFS (was 23)
	hdfsWriteAllocBudget     = 4  // measured 3 allocs per one-block HDFS write at replication 3 (was 6)
	wazeRecordAllocBudget    = 18 // measured 16.3 allocs/record, 256 reports per IngestWaze call
	tweetRecordAllocBudget   = 23 // measured 20.6 allocs/record, 256 tweets per IngestTweets call
	incidentTickAllocBudget  = 0  // quiescent correlation cycle must not allocate
	monitorTickAllocBudget   = 80 // measured 61.3 allocs per MonitorTick after a 220-camera sweep
	labeledHandleAllocBudget = 0  // cached vec handle records must not allocate
	exposeAllocBudget        = 1  // measured 0 allocs per /metrics body, at any series count
)

func allocCluster(tb testing.TB, rf int) *stream.Cluster {
	tb.Helper()
	c, err := stream.NewCluster(stream.ClusterConfig{Nodes: 3, Replication: rf})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.CreateTopic("bench", 4); err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestProduceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	for _, rf := range []int{1, 3} {
		c := allocCluster(t, rf)
		payload := []byte("camera frame annotation record")
		allocs := testing.AllocsPerRun(2000, func() {
			if _, _, err := c.Produce("bench", "cam-7", payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("RF%d produce: %.1f allocs/op", rf, allocs)
		if allocs > produceAllocBudget {
			t.Errorf("RF%d produce allocates %.1f/op, budget %d", rf, allocs, produceAllocBudget)
		}
	}
}

func TestPollCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	c := allocCluster(t, 3)
	payload := []byte("camera frame annotation record")
	const backlog = 4000
	for i := 0; i < backlog; i++ {
		if _, _, err := c.Produce("bench", "cam-7", payload); err != nil {
			t.Fatal(err)
		}
	}
	runs := 0
	allocs := testing.AllocsPerRun(backlog/2, func() {
		recs, err := c.Poll("gate", "bench", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("run %d polled %d records", runs, len(recs))
		}
		runs++
		if err := c.CommitPolled("gate", "bench"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("poll(1)+commit: %.1f allocs/op", allocs)
	if allocs > pollCommitAllocBudget {
		t.Errorf("poll+commit allocates %.1f/op, budget %d", allocs, pollCommitAllocBudget)
	}
}

// TestPollBatchAllocBudget pins the storage tier's read: a 256-record poll
// over a backlog sizes its batch once.
func TestPollBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	c := allocCluster(t, 3)
	payload := []byte("camera frame annotation record")
	const batch, runs = 256, 30
	for i := 0; i < batch*(runs+1); i++ {
		if _, _, err := c.Produce("bench", "", payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		recs, err := c.Poll("gate", "bench", batch)
		if err != nil || len(recs) != batch {
			t.Fatalf("polled %d records: %v", len(recs), err)
		}
		if err := c.CommitPolled("gate", "bench"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("poll(%d)+commit: %.1f allocs/op", batch, allocs)
	if allocs > pollBatchAllocBudget {
		t.Errorf("poll(%d)+commit allocates %.1f/op, budget %d", batch, allocs, pollBatchAllocBudget)
	}
}

// TestReplicationKeepsOneCopy: a partition stores each record once, and a
// replica is an offset into that log, so RF 3 retains what RF 1 does.
func TestReplicationKeepsOneCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap sizes")
	}
	const records = 50000
	payload := []byte("camera frame annotation record")
	retained := func(rf int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := allocCluster(t, rf)
		for i := 0; i < records; i++ {
			if _, _, err := c.Produce("bench", "", payload); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return after.HeapAlloc - before.HeapAlloc
	}
	rf1, rf3 := retained(1), retained(3)
	t.Logf("%d records retain %d B at RF 1, %d B at RF 3", records, rf1, rf3)
	if float64(rf3) > 1.05*float64(rf1) {
		t.Errorf("RF 3 retains %.2f× what RF 1 does, want ≤ 1.05×", float64(rf3)/float64(rf1))
	}
}

// TestHDFSReplicasShareOneCopy is TestReplicationKeepsOneCopy's twin for
// HDFS: the replicas of a block share one copy of its bytes, so a one-block
// write at RF 3 allocates the block once, and healing a lost replica
// allocates none of it. Per-node bytes stay logical: StoredBytes counts
// each live replica.
func TestHDFSReplicasShareOneCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap sizes")
	}
	const block = 64 << 10
	fs := hdfs.NewCluster(hdfs.Config{BlockSize: block, Replication: 3}, rand.New(rand.NewSource(42)))
	for i := 0; i < 5; i++ {
		if err := fs.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	data := make([]byte, block)
	written := allocated(func() {
		if err := fs.Write("/features/one-block.feat", data); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; ; i++ {
		if under, _ := fs.UnderReplicated(); under > 0 {
			break
		}
		if err := fs.FailDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Up to two non-holders may have failed first: give the heal a target.
	if err := fs.AddDataNode("dn-spare"); err != nil {
		t.Fatal(err)
	}
	var created int
	healed := allocated(func() {
		var err error
		if created, err = fs.ReplicateMissing(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one %d B block: write allocates %d B at RF 3, healing %d replica(s) %d B", block, written, created, healed)
	if written < block || written >= 2*block {
		t.Errorf("write allocates %d B for a %d B block at RF 3, want one copy", written, block)
	}
	if created == 0 || healed >= block/4 {
		t.Errorf("healing %d replica(s) allocates %d B, want none of the %d B block", created, healed, block)
	}
	if st := fs.Status(); st.StoredBytes != 3*block {
		t.Errorf("StoredBytes = %d after the heal, want 3 live replicas × %d", st.StoredBytes, block)
	}
}

// allocFrame is the fixed frame the ingest gates replay: below-threshold
// confidence, so every run crosses the full offload path (edge capture →
// fog gate → broker → server inference → HBase annotation).
var allocFrame = core.FrameEvent{
	CameraID:     "cam-7",
	Seq:          1,
	Class:        "vehicle",
	Confidence:   0.42,
	RawBytes:     64 << 10,
	FeatureBytes: 8 << 10,
}

// TestFrameIngestAllocBudget runs the fixed frame through the offload path
// twice: without an archive directory, and with one, where every frame also
// writes its feature map to HDFS (a one-block file) and so pays for replica
// placement.
func TestFrameIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	for _, arm := range []struct {
		archiveDir string
		budget     int
	}{{"", frameIngestAllocBudget}, {"/features", frameArchiveAllocBudget}} {
		inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		// Raise the live offload gate so the fixed 0.42-confidence frame always
		// crosses the full offload path.
		inf.Knobs.SetOffloadThreshold(0.9)
		frames := []core.FrameEvent{allocFrame}
		allocs := testing.AllocsPerRun(200, func() {
			// A feature map's path is its camera and seq, and HDFS refuses
			// to overwrite a file: the archive arm numbers its frames.
			if arm.archiveDir != "" {
				frames[0].Seq++
			}
			st, err := inf.IngestFrames(frames, arm.archiveDir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Offloaded != 1 || st.DeadLettered != 0 {
				t.Fatalf("frame not offloaded and delivered: %+v", st)
			}
		})
		t.Logf("frame ingest, archive %q: %.1f allocs/frame", arm.archiveDir, allocs)
		if allocs > float64(arm.budget) {
			t.Errorf("frame ingest, archive %q, allocates %.1f/frame, budget %d", arm.archiveDir, allocs, arm.budget)
		}
	}
}

// TestHDFSWriteAllocBudget pins one block's placement: a one-block file on
// core's five-datanode default, at replication 3.
func TestHDFSWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	fs := hdfs.NewCluster(hdfs.DefaultConfig(), rand.New(rand.NewSource(42)))
	for i := 0; i < 5; i++ {
		if err := fs.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 500
	paths := make([]string, runs+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("/features/cam-7-%06d.feat", i)
	}
	data := []byte(strings.Repeat("f", 120))
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := fs.Write(paths[next], data); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("one-block HDFS write: %.1f allocs/op", allocs)
	if allocs > hdfsWriteAllocBudget {
		t.Errorf("one-block HDFS write allocates %.1f/op, budget %d", allocs, hdfsWriteAllocBudget)
	}
}

// TestWazeIngestAllocBudget is the per-record twin of the frame gate for the
// Fig. 4 docstore feeds: 256 reports per call (one full storage-tier poll)
// through produce → poll → decode → insert. The feeds share one generic
// drain, so a record boxed into an interface or a closure allocated per
// record would show here before it shows on the benchmark's feeds-batch
// workload.
func TestWazeIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 256
	reports, err := citydata.GenerateWaze(batch, inf.Cameras, inf.Config().Epoch, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		st, err := inf.IngestWaze(reports)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stored != batch {
			t.Fatalf("stored %d of %d: %+v", st.Stored, batch, st)
		}
	}) / batch
	t.Logf("waze ingest: %.2f allocs/record", allocs)
	if allocs > wazeRecordAllocBudget {
		t.Errorf("waze ingest allocates %.2f/record, budget %d", allocs, wazeRecordAllocBudget)
	}
}

// TestTweetIngestAllocBudget is the flume-path twin of the Waze gate: 256
// tweets per call through collect → agent → dedup sink → produce → poll →
// decode → insert.
func TestTweetIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 256
	rng := rand.New(rand.NewSource(42))
	epoch := inf.Config().Epoch
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := citydata.DefaultTweetConfig(epoch)
	cfg.Count = batch
	tweets, err := citydata.GenerateTweets(cfg, incidents, inf.Gang, rng)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		st, err := inf.IngestTweets(tweets)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stored != batch {
			t.Fatalf("stored %d of %d: %+v", st.Stored, batch, st)
		}
	}) / batch
	t.Logf("tweet ingest: %.2f allocs/record", allocs)
	if allocs > tweetRecordAllocBudget {
		t.Errorf("tweet ingest allocates %.2f/record, budget %d", allocs, tweetRecordAllocBudget)
	}
}

// TestIncidentTickAllocBudget pins the incident engine's quiescent tick at
// zero allocations against the fully-wired stack (the unit-level variant
// lives in internal/incident). The engine runs on every monitor tick, so
// any steady-state allocation here compounds into GC pressure on the
// monitoring path; reused scratch buffers must absorb all per-tick work
// once boot traffic has drained and no alert transitions arrive.
func TestIncidentTickAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	// Drain boot-time events so the measured runs see the quiescent path.
	inf.MonitorTick()
	inf.MonitorTick()
	allocs := testing.AllocsPerRun(200, func() {
		inf.Incidents.Tick()
	})
	t.Logf("incident tick: %.1f allocs/op", allocs)
	if allocs > incidentTickAllocBudget {
		t.Errorf("quiescent incident tick allocates %.1f/op, budget %d", allocs, incidentTickAllocBudget)
	}
}

// monitorSweep ingests one frame per camera, each its own IngestFrames call
// with its feature map archived — the load frames-sweep puts between two
// monitor ticks. sweep numbers the frames, so no feature-map path repeats.
func monitorSweep(tb testing.TB, inf *core.Infrastructure, sweep int, rng *rand.Rand) {
	frames := make([]core.FrameEvent, 1)
	for _, cam := range inf.Cameras {
		frames[0] = core.FrameEvent{
			CameraID: cam.ID, Seq: sweep, Class: "sedan",
			Confidence: rng.Float64(), RawBytes: 64 << 10, FeatureBytes: 8 << 10, Priority: 1,
		}
		if _, err := inf.IngestFrames(frames, "/features"); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestMonitorTickAllocBudget pins the tick the frame workloads run: after a
// sweep of frames over every camera, so the tick re-ranks the fleet's vec
// families, scrapes and evaluates every alert rule and correlates the
// sweep's events. The sweep's spans folded into the incident graph as they
// ended, on the frame path. TestIncidentTickAllocBudget covers only the
// quiescent incident tick. It measures 63 allocs per tick (the tick that
// copied every retained trace measured 1 347); the budget, 80, leaves a
// margin for vec promotions, which allocate a fresh series, and for new
// TSDB series.
func TestMonitorTickAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const warm, ticks = 5, 20
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < warm+ticks; i++ {
		monitorSweep(t, inf, i, rng)
		runtime.ReadMemStats(&before)
		inf.MonitorTick()
		runtime.ReadMemStats(&after)
		if i >= warm {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	allocs := float64(mallocs) / ticks
	t.Logf("monitor tick after a %d-camera sweep: %.1f allocs/tick", len(inf.Cameras), allocs)
	if allocs > monitorTickAllocBudget {
		t.Errorf("monitor tick allocates %.1f/tick, budget %d", allocs, monitorTickAllocBudget)
	}
}

// TestLabeledHandleAllocBudget pins the dimensional layer's record path at
// zero allocations: a cached vec handle — counter Inc, gauge Set, histogram
// Observe — runs on every frame for every camera, so a single allocation
// here multiplies by fleet width times frame rate. Both a materialized
// (top-K) handle and a handle folded into the {~other} rollup are gated:
// demotion swaps an atomic pointer, it must not change the record cost.
func TestLabeledHandleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	const k = 4
	reg := telemetry.NewRegistry()
	cv := reg.CounterVec("bench_cam_frames_total", "c", "camera", k)
	gv := reg.GaugeVec("bench_cam_burn", "g", "camera", k)
	hv := reg.HistogramVec("bench_cam_seconds", "h", "camera", nil, k)
	// Fill the top-K, then one more: the overflow handle records into the
	// rollup series from birth.
	var real, overflow [3]any
	for i := 0; i <= k; i++ {
		id := fmt.Sprintf("cam-%d", i)
		c, g, h := cv.With(id), gv.With(id), hv.With(id)
		if i == 0 {
			real = [3]any{c, g, h}
		}
		if i == k {
			overflow = [3]any{c, g, h}
		}
	}
	for name, handles := range map[string][3]any{"top-K": real, "rolled-up": overflow} {
		c := handles[0].(*telemetry.LabeledCounter)
		g := handles[1].(*telemetry.LabeledGauge)
		h := handles[2].(*telemetry.LabeledHistogram)
		allocs := testing.AllocsPerRun(2000, func() {
			c.Inc()
			g.Set(0.5)
			h.Observe(0.01)
		})
		t.Logf("%s handle inc+set+observe: %.1f allocs/op", name, allocs)
		if allocs > labeledHandleAllocBudget {
			t.Errorf("%s labeled handle allocates %.1f/op, budget %d", name, allocs, labeledHandleAllocBudget)
		}
	}
}

// TestWritePrometheusAllocBudget pins the /metrics encoder: it appends into a
// reused buffer and reads histograms in place, so a warmed registry encodes
// without allocating however many series it holds. A per-line or per-bucket
// allocation would multiply by the ~1 000 lines of the full stack's
// exposition. The registry has no Counter/GaugeFuncs, whose closures are the
// caller's allocations, not the encoder's.
func TestWritePrometheusAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	reg := benchRegistry(rand.New(rand.NewSource(11)))
	for _, extra := range []int{0, 2000} {
		for i := 0; i < extra; i++ {
			reg.Counter(fmt.Sprintf("gate_counter_%04d_total", i), "c").Add(i)
		}
		var body strings.Builder
		if err := reg.WritePrometheus(&body); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-byte exposition: %.1f allocs/op", body.Len(), allocs)
		if allocs > exposeAllocBudget {
			t.Errorf("WritePrometheus of %d bytes allocates %.1f/op, budget %d", body.Len(), allocs, exposeAllocBudget)
		}
	}
}

// BenchmarkFrameIngest is the throughput/allocation view of the same paths
// the gate above pins: one camera frame through all four tiers per op, so
// ns/op and allocs/op are per frame, without and with its feature map
// archived to HDFS.
func BenchmarkFrameIngest(b *testing.B) {
	for _, arm := range []struct{ name, archiveDir string }{{"offload", ""}, {"archived", "/features"}} {
		b.Run(arm.name, func(b *testing.B) {
			inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
			if err != nil {
				b.Fatal(err)
			}
			inf.Knobs.SetOffloadThreshold(0.9)
			frames := []core.FrameEvent{allocFrame}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// HDFS refuses to overwrite a feature map: the archived arm
				// numbers its frames.
				if arm.archiveDir != "" {
					frames[0].Seq = i
				}
				if _, err := inf.IngestFrames(frames, arm.archiveDir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterPollCommit is the consumer-side hop benchCluster only
// samples: poll one record then commit the group offset.
func BenchmarkClusterPollCommit(b *testing.B) {
	c := allocCluster(b, 3)
	payload := []byte("camera frame annotation record")
	for i := 0; i < b.N+1; i++ {
		if _, _, err := c.Produce("bench", "cam-7", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := c.Poll("gate", "bench", 1); err != nil || len(recs) != 1 {
			b.Fatalf("poll: %v (%d records)", err, len(recs))
		}
		if err := c.CommitPolled("gate", "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
