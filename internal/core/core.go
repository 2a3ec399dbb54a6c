// Package core assembles the paper's distributed cyberinfrastructure
// (Fig. 1): the data layer (camera network, social network, open city data,
// law-enforcement batches), the hardware layer (four-tier fog deployment),
// the software layer (HDFS + YARN + dataproc, stream broker, HBase,
// document store, Flume agents), and the application layer (vehicle watch,
// crime-action watch, social-network narrowing). It also implements the
// Fig. 4 pipeline: collection → NoSQL storage → analysis → queryable
// annotations.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/citydata"
	"repro/internal/control"
	"repro/internal/dataproc"
	"repro/internal/docstore"
	"repro/internal/faults"
	"repro/internal/flume"
	"repro/internal/fog"
	"repro/internal/geo"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/incident"
	"repro/internal/profile"
	"repro/internal/retry"
	"repro/internal/socialgraph"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/yarn"
)

// Sentinel errors.
var (
	ErrBadConfig = errors.New("core: invalid configuration")
	ErrNotBooted = errors.New("core: infrastructure not booted")
)

// Config sizes the infrastructure.
type Config struct {
	// Storage.
	DataNodes   int
	BlockSize   int
	Replication int
	// Compute.
	ComputeNodes    int
	CoresPerNode    int
	MemPerNodeMB    int
	Parallelism     int
	TopicPartitions int
	// BrokerNodes sizes the replicated stream cluster; partition replicas
	// (Replication per partition, shared with the HDFS factor) spread across
	// these nodes. 0 defaults to max(Replication, 1) — the smallest cluster
	// that can host every replica.
	BrokerNodes int
	// OffloadThreshold is the initial fog early-exit confidence gate —
	// frames below it offload feature maps upstream. It seeds the live knob
	// the adaptive controller owns; 0 defaults to 0.5.
	OffloadThreshold float64
	// Hardware layer (fog tiers).
	Fog fog.DeploymentConfig
	// Data layer.
	Cameras int
	Gang    socialgraph.GenConfig
	// Epoch anchors generated timestamps.
	Epoch time.Time
}

// DefaultConfig returns a laptop-scale deployment faithful to the paper's
// shape: >200 cameras, the 67-group gang network, triple-replicated HDFS.
func DefaultConfig() Config {
	return Config{
		DataNodes: 4, BlockSize: 64 * 1024, Replication: 3,
		ComputeNodes: 4, CoresPerNode: 4, MemPerNodeMB: 8192,
		Parallelism: 4, TopicPartitions: 4, BrokerNodes: 3,
		OffloadThreshold: 0.5,
		Fog:              fog.DefaultDeploymentConfig(),
		Cameras:          220,
		Gang:             socialgraph.PaperConfig(),
		Epoch:            time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Infrastructure is the booted cyberinfrastructure.
type Infrastructure struct {
	cfg Config
	rng *rand.Rand

	// Software layer.
	HDFS   *hdfs.Cluster
	RM     *yarn.ResourceManager
	Engine *dataproc.Engine
	// Broker is the replicated stream cluster: BrokerNodes nodes hosting
	// Replication copies of every partition, with per-partition leader
	// election driven by MonitorTick.
	Broker   *stream.Cluster
	DocDB    *docstore.Database
	CrimeTab *hbase.Table // row: incident report number
	VideoTab *hbase.Table // row: camera/time annotations

	// Resilience layer. Bus is the produce/poll surface the pipelines use —
	// normally the Broker itself, wrapped by a fault-injecting decorator when
	// chaos is enabled. Retry is the shared policy (backoff + breaker on the
	// simulated clock) every ingestion seam goes through; RedriveRounds
	// bounds how many times dead-lettered events are replayed before being
	// quarantined for good.
	Bus           stream.Bus
	Clock         *retry.ManualClock
	Breaker       *retry.Breaker
	Retry         *retry.Policy
	RedriveRounds int
	Injector      *faults.Injector // nil until EnableChaos
	storeFault    func() error     // docstore insert fault hook

	// Observability layer: every tier records into one registry, the
	// tracer attributes end-to-end latency to pipeline stages, and the
	// Healer is the HDFS re-replication supervisor whose gauges it exposes.
	// Events is the bounded operational event log fed by breaker, healer,
	// HBase, and dead-letter state changes; SLOs tracks rolling burn rates
	// over the pipeline counters.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	Healer    *hdfs.Supervisor
	Events    *telemetry.EventLog
	SLOs      *telemetry.SLOMonitor
	// Fleet is the per-camera dimensional layer: bounded-cardinality vec
	// families on the frame path plus the windowed per-camera accounting
	// behind /api/cameras.
	Fleet *Fleet

	// Monitoring layer: the embedded time-series store scrapes the registry
	// into ring-buffer history on every MonitorTick, and the alert engine
	// evaluates the default rule set (delivery rate, breaker state, lost
	// blocks, p99 anomaly) over that history. ScrapeInterval is how far each
	// tick advances the simulated clock.
	TSDB           *tsdb.Store
	Alerts         *tsdb.Engine
	ScrapeInterval time.Duration

	// Control layer: the closed-loop adaptive controller and the live knobs
	// it owns. Knobs is read lock-free by the frame hot path (offload
	// threshold, inference tier, shed level); Control runs one decision
	// cycle per MonitorTick after the alert evaluation.
	Knobs   *control.Knobs
	Control *control.Controller

	// Profiling layer: the always-on continuous profiler every tier reports
	// into. MonitorTick closes one attribution window per tick; /api/profile
	// and the watch dashboard read its hot-region rankings.
	Profiler *profile.Profiler

	// Incident correlation layer: joins traces, events, and alert state
	// into a live dependency graph and ranked root-cause incidents. Runs
	// one correlation pass per MonitorTick, after the alert evaluation and
	// before the controller, so mitigations land in the same tick's
	// incident timeline.
	Incidents *incident.Engine
	profIngest, profCollect, profStream, profStore,
	profArchive, profGate, profInference *profile.Region

	busMetrics      *stream.BusMetrics
	flumeTel        *flume.AgentTelemetry
	ingestSeq       atomic.Int64
	ingestSeconds   *telemetry.Histogram
	failoverSeconds *telemetry.Histogram
	pipeCollected, pipeStreamed, pipeStored,
	pipeDropped, pipeDeadLettered, pipeRetries *telemetry.Counter
	framesShed *telemetry.Counter

	// Hardware layer.
	Deployment *fog.Deployment

	// Data layer.
	Cameras  []citydata.Camera
	CamIndex *geo.GridIndex[citydata.Camera]
	Gang     *socialgraph.Graph
}

// New boots every layer. It is deterministic for a given rng.
func New(cfg Config, rng *rand.Rand) (*Infrastructure, error) {
	if cfg.DataNodes < cfg.Replication {
		return nil, fmt.Errorf("%w: %d datanodes < replication %d", ErrBadConfig, cfg.DataNodes, cfg.Replication)
	}
	if cfg.ComputeNodes <= 0 || cfg.Cameras < 9 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	inf := &Infrastructure{cfg: cfg, rng: rng}

	// Software layer: storage.
	inf.HDFS = hdfs.NewCluster(hdfs.Config{BlockSize: cfg.BlockSize, Replication: cfg.Replication}, rng)
	for i := 0; i < cfg.DataNodes; i++ {
		if err := inf.HDFS.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			return nil, fmt.Errorf("boot hdfs: %w", err)
		}
	}
	// Software layer: resource manager + processing engine.
	inf.RM = yarn.NewResourceManager()
	for i := 0; i < cfg.ComputeNodes; i++ {
		res := yarn.Resources{Cores: cfg.CoresPerNode, MemMB: cfg.MemPerNodeMB}
		if err := inf.RM.AddNode(fmt.Sprintf("nm-%d", i), res); err != nil {
			return nil, fmt.Errorf("boot yarn: %w", err)
		}
	}
	app, err := inf.RM.Submit("cityinfra-analytics", "default")
	if err != nil {
		return nil, fmt.Errorf("submit app: %w", err)
	}
	inf.Engine = dataproc.NewEngine(cfg.Parallelism,
		dataproc.WithYARN(inf.RM, app, yarn.Resources{Cores: 1, MemMB: 1024}))

	// Software layer: streaming + NoSQL. The broker is a replicated cluster
	// sized like the HDFS tier: Replication copies of every partition spread
	// across BrokerNodes nodes, so losing a broker node loses no acknowledged
	// record.
	brokerNodes := cfg.BrokerNodes
	if brokerNodes == 0 {
		brokerNodes = cfg.Replication
		if brokerNodes < 1 {
			brokerNodes = 1
		}
	}
	inf.Broker, err = stream.NewCluster(stream.ClusterConfig{
		Nodes: brokerNodes, Replication: cfg.Replication,
	})
	if err != nil {
		return nil, fmt.Errorf("boot broker: %w", err)
	}
	for _, topic := range []string{"tweets", "waze", "crimes", "calls911", "frames", "alerts"} {
		if err := inf.Broker.CreateTopic(topic, cfg.TopicPartitions); err != nil {
			return nil, fmt.Errorf("boot broker: %w", err)
		}
	}
	inf.DocDB = docstore.NewDatabase()
	tweets := inf.DocDB.Collection("tweets")
	tweets.CreateIndex("author")
	tweets.CreateGeoIndex("loc")
	inf.DocDB.Collection("waze").CreateGeoIndex("loc")
	inf.DocDB.Collection("calls911").CreateGeoIndex("loc")
	inf.DocDB.Collection("deadletter").CreateIndex("source")

	// Resilience layer: one policy shared by every seam, backing off on a
	// simulated clock anchored at the epoch so tests and experiments never
	// sleep for real.
	inf.Clock = retry.NewManualClock(cfg.Epoch)
	inf.Breaker = retry.NewBreaker(retry.BreakerConfig{
		FailureThreshold: 5, OpenTimeout: 40 * time.Millisecond, HalfOpenProbes: 2,
	}, inf.Clock)
	inf.Retry = retry.NewPolicy(retry.DefaultConfig(), cfg.Epoch.UnixNano()).
		WithClock(inf.Clock).WithBreaker(inf.Breaker)
	inf.RedriveRounds = 5
	// Broker record timestamps ride the same simulated clock as everything
	// else, so failover timelines are reproducible tick for tick.
	inf.Broker.SetClock(inf.Clock.Now)

	inf.CrimeTab, err = hbase.NewTable("crimes", []string{"meta", "persons"}, hbase.DefaultConfig(), inf.HDFS)
	if err != nil {
		return nil, fmt.Errorf("boot hbase crimes: %w", err)
	}
	inf.VideoTab, err = hbase.NewTable("video_annotations", []string{"det", "action"}, hbase.DefaultConfig(), inf.HDFS)
	if err != nil {
		return nil, fmt.Errorf("boot hbase video: %w", err)
	}

	// Observability layer: registry + tracer, scrape-time wiring over the
	// component stats above, and a metering decorator on the bus so every
	// produce/poll is timed regardless of what sits underneath.
	inf.Telemetry = telemetry.NewRegistry()
	inf.Tracer = telemetry.NewTracer(nil, 128)
	inf.Healer = hdfs.NewSupervisor(inf.HDFS)
	inf.Events = telemetry.NewEventLog(nil, 512)
	inf.SLOs = telemetry.NewSLOMonitor(inf.Clock.Now)
	inf.wireTelemetry()
	inf.wireFleet()
	inf.Bus = stream.NewMeteredBus(inf.Broker, inf.busMetrics)
	if err := inf.wireMonitor(); err != nil {
		return nil, fmt.Errorf("boot monitor: %w", err)
	}

	// Hardware layer.
	inf.Deployment, err = fog.BuildDeployment(cfg.Fog)
	if err != nil {
		return nil, fmt.Errorf("boot fog: %w", err)
	}

	// Profiling layer: needs every instrumented component above to exist.
	inf.wireProfiler()

	// Control layer: wires the controller's signals over the monitoring,
	// SLO, and profiling layers, so it must come last.
	inf.wireControl()

	// Incident correlation layer: reads every telemetry surface wired
	// above (tracer, event log, alert engine, profiler).
	inf.wireIncidents()

	// Data layer.
	inf.Cameras, err = citydata.CameraNetwork(cfg.Cameras, rng)
	if err != nil {
		return nil, fmt.Errorf("boot cameras: %w", err)
	}
	inf.CamIndex, err = geo.NewGridIndex[citydata.Camera](citydata.LouisianaBBox(), 64, 64)
	if err != nil {
		return nil, fmt.Errorf("boot camera index: %w", err)
	}
	for _, cam := range inf.Cameras {
		if err := inf.CamIndex.Insert(cam.Location, cam); err != nil {
			return nil, fmt.Errorf("index camera %s: %w", cam.ID, err)
		}
	}
	inf.Gang, err = socialgraph.Generate(cfg.Gang, rng)
	if err != nil {
		return nil, fmt.Errorf("boot gang network: %w", err)
	}
	return inf, nil
}

// LayerInventory describes one architecture layer's components for the
// Fig. 1 report.
type LayerInventory struct {
	Layer      string
	Components []string
}

// Inventory reports every layer's live components (experiment E1).
func (inf *Infrastructure) Inventory() []LayerInventory {
	hdfsStatus := inf.HDFS.Status()
	total := inf.RM.TotalCapacity()
	return []LayerInventory{
		{Layer: "data", Components: []string{
			fmt.Sprintf("cameras: %d across %d cities", len(inf.Cameras), len(citydata.Cities())),
			fmt.Sprintf("social network: %d members, %d edges", inf.Gang.NumNodes(), inf.Gang.NumEdges()),
			"open city data: crimes, waze, 911 calls, tweets",
			"law enforcement: monthly individual-level batches (90-day retention)",
		}},
		{Layer: "hardware", Components: []string{
			fmt.Sprintf("edge devices: %d", len(inf.Deployment.Edges)),
			fmt.Sprintf("fog nodes: %d", len(inf.Deployment.FogIDs)),
			fmt.Sprintf("analysis servers: %d", len(inf.Deployment.Servers)),
			"federated cloud: 1",
		}},
		{Layer: "software", Components: []string{
			fmt.Sprintf("hdfs: %d datanodes, replication %d", hdfsStatus.LiveNodes, inf.HDFS.Config().Replication),
			fmt.Sprintf("yarn: %d cores, %d MB", total.Cores, total.MemMB),
			fmt.Sprintf("dataproc: %d-way parallel engine", inf.cfg.Parallelism),
			fmt.Sprintf("stream broker: %d nodes, replication %d, topics %v",
				inf.Broker.NodeCount(), inf.HDFS.Config().Replication, inf.Broker.Topics()),
			"hbase: crimes, video_annotations",
			fmt.Sprintf("docstore: collections %v", inf.DocDB.Collections()),
		}},
		{Layer: "application", Components: []string{
			"vehicle detection & classification (early-exit YOLO-style)",
			"suspicious behavior & crime action recognition (ResNet+LSTM, entropy exit)",
			"social network narrowing (2nd-degree associates × geo-tweets)",
		}},
	}
}

// Config returns the boot configuration.
func (inf *Infrastructure) Config() Config { return inf.cfg }
