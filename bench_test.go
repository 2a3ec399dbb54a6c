package repro

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dataproc"
	"repro/internal/docstore"
	"repro/internal/fog"
	"repro/internal/geo"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/nn"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/tsdb"
)

// --- Micro-benchmarks for the substrates' hot paths ---

func BenchmarkTensorMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 64, 64)
	y := tensor.Randn(rng, 1, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	layer := nn.NewConv2D(nn.ConvConfig{InC: 3, OutC: 16, Kernel: 3, Stride: 1, Pad: 1}, nn.WithRand(rng))
	x := tensor.Randn(rng, 1, 8, 3, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layer.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSTMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	layer := nn.NewLSTM(32, 64, nn.WithRand(rng))
	x := tensor.Randn(rng, 1, 8, 16, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layer.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHDFSWriteRead(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cluster := hdfs.NewCluster(hdfs.Config{BlockSize: 4096, Replication: 3}, rng)
	for i := 0; i < 4; i++ {
		if err := cluster.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, 64*1024)
	rng.Read(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench/%d", i)
		if err := cluster.Write(path, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Read(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHBaseRandomReads(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cluster := hdfs.NewCluster(hdfs.Config{BlockSize: 16 * 1024, Replication: 2}, rng)
	for i := 0; i < 3; i++ {
		if err := cluster.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	table, err := hbase.NewTable("bench", []string{"f"}, hbase.DefaultConfig(), cluster)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 5000
	for i := 0; i < rows; i++ {
		if err := table.Put(fmt.Sprintf("row-%05d", i), "f", "v", []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("row-%05d", rng.Intn(rows))
		if _, err := table.Get(key, "f", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDocstoreGeoFind is TweetsNear's query — 2 km radius plus a time
// range — over documents spread evenly across Louisiana, centred on a stored
// document each time. A 33 times larger collection must cost what the extra
// matches cost (matches/op is reported beside ns/op), not 33 times the scan.
func BenchmarkDocstoreGeoFind(b *testing.B) {
	for _, docs := range []int{3_000, 100_000} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			col := docstore.NewDatabase().Collection("tweets")
			col.CreateGeoIndex("loc")
			box := citydata.LouisianaBBox()
			points := make([]geo.Point, docs)
			for i := range points {
				points[i] = geo.Point{
					Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
					Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
				}
				if _, err := col.Insert(docstore.Document{"loc": points[i], "unixTime": float64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := col.Find(docstore.Query{Conditions: []docstore.Condition{
					docstore.GeoWithin("loc", points[rng.Intn(docs)], 2),
					docstore.Range("unixTime", 0.0, float64(docs)),
				}})
				if err != nil || len(got) == 0 {
					b.Fatalf("%d documents, %v: the centre is a stored point", len(got), err)
				}
				matches += len(got)
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
			if st := col.Planner(); st.FullScans != 0 {
				b.Fatalf("planner %+v: a radius query scanned the collection", st)
			}
		})
	}
}

func BenchmarkStreamProduceConsume(b *testing.B) {
	broker := allocCluster(b, 1)
	payload := []byte("camera frame annotation record")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := broker.Produce("bench", fmt.Sprintf("k%d", i%16), payload); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := broker.Poll("g", "bench", 100); err != nil {
				b.Fatal(err)
			}
			if err := broker.CommitPolled("g", "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDataprocWordCount(b *testing.B) {
	docs := make([]any, 500)
	for i := range docs {
		docs[i] = "crime traffic jam incident report camera downtown alert"
	}
	eng := dataproc.NewEngine(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := eng.Parallelize(docs, 8).
			FlatMap(func(v any) []any {
				var out []any
				for _, w := range strings.Fields(v.(string)) {
					out = append(out, dataproc.Pair{Key: w, Value: 1})
				}
				return out
			}).
			ReduceByKey(func(a, c any) any { return a.(int) + c.(int) }).
			CollectPairs()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFogSimulation(b *testing.B) {
	d, err := fog.BuildDeployment(fog.DefaultDeploymentConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	items := make([]fog.InferenceItem, 500)
	for i := range items {
		items[i] = fog.InferenceItem{
			ID: fmt.Sprintf("f%d", i), EdgeIdx: i % 8, ReleaseMs: float64(i),
			Confidence: rng.Float64(), RawBytes: 30000, FeatureBytes: 6000,
			LocalOps: 150, ServerOps: 1800, FullOps: 2200,
		}
	}
	policy := fog.Policy{Kind: fog.PolicyEarlyExit, Threshold: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := policy.JobsFor(d, items)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Topo.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerTick measures one closed-loop control cycle — the cost
// the adaptive controller adds to every monitor tick on top of scrape and
// alert evaluation. Signals alternate degraded/healthy so classification,
// action selection, and recovery all stay on the measured path.
func BenchmarkControllerTick(b *testing.B) {
	knobs := control.NewKnobs(0.5)
	degraded := false
	sig := control.Signals{
		Firing:      func() []string { return nil },
		BurnRate:    func() float64 { return 0 },
		BreakerOpen: func() bool { return degraded },
		Eval: func(string) (float64, bool) {
			if degraded {
				return 2, true
			}
			return 0, true
		},
	}
	cfg := control.DefaultConfig()
	cfg.WatchRules = []string{"breaker-open"}
	c := control.NewController(knobs, cfg, sig, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		degraded = i%8 < 4
		c.Tick()
	}
}

// BenchmarkIncidentTick measures one quiescent correlation cycle — the
// cost the incident engine adds to every monitor tick once boot traffic
// has drained and no new spans, events, or alert transitions arrive.
// Steady state must stay at 0 allocs/op (gated by
// TestIncidentTickAllocBudget) so correlation never becomes GC pressure
// on the monitoring path.
func BenchmarkIncidentTick(b *testing.B) {
	inf, err := core.New(core.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	// Two monitor ticks fold boot-time spans and events into the
	// dependency graph so the measured loop starts from the drained
	// steady state.
	inf.MonitorTick()
	inf.MonitorTick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.Incidents.Tick()
	}
}

// benchCluster measures the replicated produce path: RF 1 acks on the
// leader's append alone, RF 3 acks only after the record lands on every
// in-sync replica, so the delta between the two is the replication tax.
func benchCluster(b *testing.B, rf int) {
	c, err := stream.NewCluster(stream.ClusterConfig{Nodes: 3, Replication: rf})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CreateTopic("bench", 4); err != nil {
		b.Fatal(err)
	}
	payload := []byte("camera frame annotation record")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Produce("bench", fmt.Sprintf("k%d", i%16), payload); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := c.Poll("g", "bench", 100); err != nil {
				b.Fatal(err)
			}
			if err := c.CommitPolled("g", "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkClusterProduceRF1(b *testing.B) { benchCluster(b, 1) }
func BenchmarkClusterProduceRF3(b *testing.B) { benchCluster(b, 3) }

// --- Monitoring-layer hot paths: scrape and query per tick ---

// benchRegistry builds a registry with a representative instrument mix:
// the scrape cost scales with registered metrics, not traffic. It has the
// fleet's shape too: a counter and a histogram family over 220 cameras with
// the default top-16 budget, so every scrape checks 440 children for a
// change of membership.
func benchRegistry(rng *rand.Rand) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	for i := 0; i < 24; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%d_total", i), "c").Add(rng.Intn(1000))
		reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), "g").Set(rng.Float64())
	}
	for i := 0; i < 8; i++ {
		h := reg.Histogram(fmt.Sprintf("bench_latency_%d_seconds", i), "h", nil)
		for j := 0; j < 200; j++ {
			h.ObserveExemplar(rng.Float64()*0.2, fmt.Sprintf("trace-%d", j))
		}
	}
	frames := reg.CounterVec("bench_camera_frames_total", "frames per camera", "camera", telemetry.DefaultVecMaxSeries)
	latency := reg.HistogramVec("bench_camera_latency_seconds", "latency per camera", "camera", nil, telemetry.DefaultVecMaxSeries)
	for i := 0; i < 220; i++ {
		cam := fmt.Sprintf("cam-%03d", i)
		frames.With(cam).Add(1 + rng.Intn(50))
		h := latency.With(cam)
		for j := rng.Intn(20); j >= 0; j-- {
			h.Observe(rng.Float64() * 0.2)
		}
	}
	return reg
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	reg := benchRegistry(rand.New(rand.NewSource(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := reg.Snapshot(); len(pts) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkWritePrometheus is one /metrics body: the whole registry encoded
// in the text exposition format.
func BenchmarkWritePrometheus(b *testing.B) {
	reg := benchRegistry(rand.New(rand.NewSource(10)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDBScrape(b *testing.B) {
	reg := benchRegistry(rand.New(rand.NewSource(8)))
	clock := time.Unix(1_000_000, 0)
	store := tsdb.NewStore(reg, tsdb.Config{Capacity: 512, Now: func() time.Time { return clock }})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock = clock.Add(5 * time.Second)
		if n := store.Scrape(); n == 0 {
			b.Fatal("scrape updated no series")
		}
	}
}

func BenchmarkTSDBQueryEval(b *testing.B) {
	reg := benchRegistry(rand.New(rand.NewSource(9)))
	clock := time.Unix(1_000_000, 0)
	store := tsdb.NewStore(reg, tsdb.Config{Capacity: 512, Now: func() time.Time { return clock }})
	counter := reg.Counter("bench_hot_total", "hot path counter")
	for i := 0; i < 256; i++ { // fill the retention window
		counter.Add(17)
		clock = clock.Add(5 * time.Second)
		store.Scrape()
	}
	exprs := []string{
		"rate(bench_hot_total[1m])",
		"avg_over_time(bench_gauge_3[5m])",
		"quantile_over_time(0.9, bench_latency_1_seconds_p99[10m])",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Eval(exprs[i%len(exprs)], clock); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataParallelTraining measures the software layer's "data
// parallelism ... multiple workers per node" claim: synchronous replicated
// training at several worker counts on a fixed batch.
func BenchmarkDataParallelTraining(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			factory := func() nn.Layer {
				r := rand.New(rand.NewSource(9))
				return nn.NewSequential(
					nn.NewDense(64, 128, nn.WithRand(r)),
					nn.NewTanh(),
					nn.NewDense(128, 10, nn.WithRand(r)),
				)
			}
			master := factory()
			trainer, err := nn.NewParallelTrainer(master, workers, factory)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			x := tensor.Randn(rng, 1, 256, 64)
			labels := make([]int, 256)
			for i := range labels {
				labels[i] = rng.Intn(10)
			}
			opt := nn.NewSGD(0.01, 0.9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trainer.Step(x, labels, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
