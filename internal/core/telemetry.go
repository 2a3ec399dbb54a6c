package core

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/flume"
	"repro/internal/hbase"
	"repro/internal/profile"
	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// wireTelemetry registers the infrastructure's metric families on the shared
// registry. Components with hot paths (broker, flume, pipelines) get direct
// instruments recorded at call time; components that already keep their own
// counters (retry policy, breaker, HDFS, HBase, the re-replication
// supervisor) are read at scrape time via CounterFunc/GaugeFunc so their
// fast paths are not instrumented twice.
func (inf *Infrastructure) wireTelemetry() {
	r := inf.Telemetry

	// Broker and flume hot-path instruments: the pipeline bus's call
	// counters, and the counters every flume agent shares.
	inf.bus = newPipelineBus(inf.Broker, r)
	inf.flumeTel = flume.NewAgentTelemetry(r)

	// Pipeline (Fig. 4) cumulative counters and end-to-end latency.
	inf.ingestSeconds = r.Histogram("cityinfra_pipeline_ingest_seconds",
		"end-to-end latency of one ingestion run in seconds", nil)
	inf.pipeCollected = r.Counter("cityinfra_pipeline_collected_total", "events produced by collectors")
	inf.pipeStreamed = r.Counter("cityinfra_pipeline_streamed_total", "records that crossed the broker")
	inf.pipeStored = r.Counter("cityinfra_pipeline_stored_total", "documents/cells written to NoSQL stores")
	inf.pipeDropped = r.Counter("cityinfra_pipeline_dropped_total", "records lost outright")
	inf.pipeDeadLettered = r.Counter("cityinfra_pipeline_deadlettered_total", "records quarantined for replay")
	inf.pipeRetries = r.Counter("cityinfra_pipeline_retries_total", "delivery attempts beyond the first")

	// Replicated broker cluster: ISR/election health read at scrape time,
	// plus a failover-latency histogram fed by the cluster observer below.
	// The under-replicated gauge is the canonical replication health signal
	// the default alert rules watch.
	r.GaugeFunc("cityinfra_broker_nodes_up", "broker nodes currently alive",
		func() float64 { return float64(inf.Broker.NodesUp()) })
	r.GaugeFunc("cityinfra_broker_under_replicated_partitions", "partitions whose ISR is below the replication factor",
		func() float64 { return float64(inf.Broker.UnderReplicated()) })
	r.GaugeFunc("cityinfra_broker_leaderless_partitions", "partitions currently without a live leader",
		func() float64 { return float64(inf.Broker.Leaderless()) })
	clusterStat := func(get func(stream.ClusterStats) int) func() float64 {
		return func() float64 { return float64(get(inf.Broker.Stats())) }
	}
	r.CounterFunc("cityinfra_broker_elections_total", "partition leader elections",
		clusterStat(func(s stream.ClusterStats) int { return s.Elections }))
	r.CounterFunc("cityinfra_broker_isr_shrinks_total", "followers dropped from an ISR",
		clusterStat(func(s stream.ClusterStats) int { return s.ISRShrinks }))
	r.CounterFunc("cityinfra_broker_isr_expands_total", "followers that caught up and rejoined an ISR",
		clusterStat(func(s stream.ClusterStats) int { return s.ISRExpands }))
	r.CounterFunc("cityinfra_broker_node_crashes_total", "broker node crashes",
		clusterStat(func(s stream.ClusterStats) int { return s.Crashes }))
	r.CounterFunc("cityinfra_broker_catchup_records_total", "records replicated to lagging followers",
		clusterStat(func(s stream.ClusterStats) int { return s.CatchUpRecords }))
	r.CounterFunc("cityinfra_broker_unavailable_errors_total", "produces rejected for want of a leader",
		clusterStat(func(s stream.ClusterStats) int { return s.UnavailableErrors }))
	r.CounterFunc("cityinfra_broker_stale_produces_total", "produces fenced by a stale leader epoch",
		clusterStat(func(s stream.ClusterStats) int { return s.StaleProduces }))
	inf.failoverSeconds = r.Histogram("cityinfra_broker_failover_seconds",
		"leadership-loss to re-election latency on the simulated clock", nil)

	// Retry policy: scrape-time reads of the policy's own counters.
	retryStat := func(get func(retry.Stats) int) func() float64 {
		return func() float64 { return float64(get(inf.Retry.Stats())) }
	}
	r.CounterFunc("cityinfra_retry_calls_total", "retry policy invocations",
		retryStat(func(s retry.Stats) int { return s.Calls }))
	r.CounterFunc("cityinfra_retry_attempts_total", "operation executions",
		retryStat(func(s retry.Stats) int { return s.Attempts }))
	r.CounterFunc("cityinfra_retry_retries_total", "backoff sleeps taken",
		retryStat(func(s retry.Stats) int { return s.Retries }))
	r.CounterFunc("cityinfra_retry_failures_total", "failed operation executions",
		retryStat(func(s retry.Stats) int { return s.Failures }))
	r.CounterFunc("cityinfra_retry_short_circuits_total", "attempts skipped by an open breaker",
		retryStat(func(s retry.Stats) int { return s.ShortCircuits }))
	r.CounterFunc("cityinfra_retry_exhausted_total", "calls that failed after all attempts",
		retryStat(func(s retry.Stats) int { return s.Exhausted }))

	// Circuit breaker: state gauge plus state-transition counters.
	r.GaugeFunc("cityinfra_breaker_state", "0=closed, 1=half-open, 2=open", func() float64 {
		switch inf.Breaker.State() {
		case retry.Open:
			return 2
		case retry.HalfOpen:
			return 1
		default:
			return 0
		}
	})
	breakerStat := func(get func(retry.BreakerStats) int) func() float64 {
		return func() float64 { return float64(get(inf.Breaker.Stats())) }
	}
	r.CounterFunc("cityinfra_breaker_opened_total", "transitions into open",
		breakerStat(func(s retry.BreakerStats) int { return s.Opened }))
	r.CounterFunc("cityinfra_breaker_half_opened_total", "transitions into half-open",
		breakerStat(func(s retry.BreakerStats) int { return s.HalfOpened }))
	r.CounterFunc("cityinfra_breaker_closed_total", "transitions into closed after recovery",
		breakerStat(func(s retry.BreakerStats) int { return s.Closed }))
	r.CounterFunc("cityinfra_breaker_short_circuits_total", "attempts rejected while open",
		breakerStat(func(s retry.BreakerStats) int { return s.ShortCircuits }))

	// HDFS: block I/O counters plus cluster-health gauges.
	r.CounterFunc("cityinfra_hdfs_block_reads_total", "block replicas successfully read",
		func() float64 { return float64(inf.HDFS.Counters().BlockReads) })
	r.CounterFunc("cityinfra_hdfs_block_writes_total", "blocks placed at full replication",
		func() float64 { return float64(inf.HDFS.Counters().BlockWrites) })
	r.CounterFunc("cityinfra_hdfs_replicas_created_total", "replicas created by re-replication",
		func() float64 { return float64(inf.HDFS.Counters().ReplicasCreated) })
	r.GaugeFunc("cityinfra_hdfs_live_datanodes", "datanodes currently alive",
		func() float64 { return float64(inf.HDFS.Status().LiveNodes) })
	r.GaugeFunc("cityinfra_hdfs_under_replicated_blocks", "blocks below the replication factor",
		func() float64 { return float64(inf.HDFS.Status().UnderReplicated) })
	r.GaugeFunc("cityinfra_hdfs_lost_blocks", "blocks with zero live replicas",
		func() float64 { return float64(inf.HDFS.Status().LostBlocks) })
	r.GaugeFunc("cityinfra_hdfs_stored_bytes", "bytes stored on live datanodes",
		func() float64 { return float64(inf.HDFS.Status().StoredBytes) })

	// Re-replication supervisor (self-healing loop).
	r.CounterFunc("cityinfra_hdfs_healer_ticks_total", "supervisor scan passes",
		func() float64 { return float64(inf.Healer.Stats().Ticks) })
	r.CounterFunc("cityinfra_hdfs_healer_repair_ticks_total", "scan passes that found under-replication",
		func() float64 { return float64(inf.Healer.Stats().RepairTicks) })
	r.CounterFunc("cityinfra_hdfs_healer_replicas_created_total", "replicas restored by the supervisor",
		func() float64 { return float64(inf.Healer.Stats().ReplicasCreated) })

	// HBase: per-table WAL/memstore/flush metrics.
	for _, tab := range []*hbase.Table{inf.CrimeTab, inf.VideoTab} {
		tab := tab
		label := func(name string) string {
			return telemetry.FormatName(name, telemetry.LabelSet{{Key: "table", Value: tab.Name()}})
		}
		r.CounterFunc(label("cityinfra_hbase_wal_appends_total"), "WAL appends",
			func() float64 { return float64(tab.Stats().WALAppends) })
		r.CounterFunc(label("cityinfra_hbase_flushes_total"), "memstore flushes",
			func() float64 { return float64(tab.Stats().Flushes) })
		r.CounterFunc(label("cityinfra_hbase_compactions_total"), "store-file compactions",
			func() float64 { return float64(tab.Stats().Compactions) })
		r.GaugeFunc(label("cityinfra_hbase_memstore_cells"), "cells buffered in the memstore",
			func() float64 { return float64(tab.Stats().MemstoreCells) })
		r.GaugeFunc(label("cityinfra_hbase_store_files"), "immutable store files",
			func() float64 { return float64(tab.Stats().StoreFiles) })
	}

	// Event log: state changes from the breaker, the HDFS healer, and the
	// HBase lifecycle land in the bounded ring served at /api/events. These
	// are infrastructure-wide transitions, not per-request ones, so they log
	// without a trace id; per-record events (dead letters) attach theirs at
	// the call site.
	inf.Breaker.SetOnStateChange(func(from, to retry.BreakerState) {
		level := telemetry.LevelWarn
		if to == retry.Closed {
			level = telemetry.LevelInfo
		}
		inf.Events.Log(level, telemetry.CompBreaker, "", "circuit breaker %s → %s", from, to)
	})
	inf.Healer.SetOnRepair(func(created int, err error) {
		if err != nil {
			inf.Events.Log(telemetry.LevelError, telemetry.CompHealer, "", "re-replication pass failed after %d replicas: %v", created, err)
			return
		}
		inf.Events.Log(telemetry.LevelWarn, telemetry.CompHealer, "", "re-replicated %d under-replicated block replicas", created)
	})
	for _, tab := range []*hbase.Table{inf.CrimeTab, inf.VideoTab} {
		tab := tab
		tab.SetEventHook(func(event, detail string) {
			inf.Events.Log(telemetry.LevelInfo, telemetry.Component(telemetry.CompHBase, tab.Name()), "", "%s: %s", event, detail)
		})
	}
	// Broker cluster transitions: crashes, leadership changes, and ISR churn
	// land in the event log, and every election observes its failover latency
	// (ticks since leadership loss, scaled by the scrape interval) into the
	// histogram above. The observer runs under the cluster lock, so it only
	// records — it never calls back into the broker.
	inf.Broker.SetObserver(func(ev stream.ClusterEvent) {
		part := fmt.Sprintf("%s/%d", ev.Topic, ev.Partition)
		switch ev.Kind {
		case "node-crash":
			inf.Events.Log(telemetry.LevelWarn, telemetry.CompBroker, "", "node %d crashed", ev.Node)
		case "node-restart":
			inf.Events.Log(telemetry.LevelInfo, telemetry.CompBroker, "", "node %d restarted", ev.Node)
		case "leader-lost":
			inf.Events.Log(telemetry.LevelWarn, telemetry.CompBroker, "",
				"%s lost leader (node %d, epoch %d)", part, ev.Node, ev.Epoch)
		case "leader-elected":
			inf.failoverSeconds.Observe((time.Duration(ev.FailoverTicks) * inf.ScrapeInterval).Seconds())
			inf.Events.Log(telemetry.LevelInfo, telemetry.CompBroker, "",
				"%s elected node %d (clean, epoch %d, %d ticks leaderless)",
				part, ev.Node, ev.Epoch, ev.FailoverTicks)
		case "isr-shrink":
			inf.Events.Log(telemetry.LevelWarn, telemetry.CompBroker, "",
				"%s dropped node %d from ISR: %s", part, ev.Node, ev.Detail)
		case "isr-expand":
			inf.Events.Log(telemetry.LevelInfo, telemetry.CompBroker, "",
				"%s node %d caught up, rejoined ISR", part, ev.Node)
		}
	})

	// SLOs over the cumulative pipeline counters: delivery (every collected
	// event either lands in a store or is at least quarantined for replay)
	// and end-to-end ingest latency under one second.
	inf.SLOs.Add("ingest-delivery", 0.999, time.Hour,
		func() float64 {
			return float64(inf.pipeCollected.Value()) -
				float64(inf.pipeDropped.Value()) - float64(inf.pipeDeadLettered.Value())
		},
		func() float64 { return float64(inf.pipeCollected.Value()) })
	inf.SLOs.Add("ingest-latency-1s", 0.95, time.Hour,
		func() float64 { return float64(inf.ingestSeconds.CountAtOrBelow(1.0)) },
		func() float64 { return float64(inf.ingestSeconds.Count()) })
}

// ingestRun is one pipeline run in flight: its trace root, whose Begin and
// Finish time the run; the root's context, which rides record headers across
// the broker hop; and the open "ingest" profile span.
type ingestRun struct {
	inf  *Infrastructure
	root *telemetry.Span
	ctx  telemetry.TraceContext
	prof profile.Span
}

// beginIngest opens the "ingest" profile region and the trace for one run.
// Trace ids are sequence-numbered per source so concurrent ingests never
// collide; the most recent runs stay inspectable via /api/trace/{id}. The
// region opens before the run's first allocation, so a collector assist paid
// there (a caller that has just generated its input owes one) is attributed
// to the run instead of falling between the caller's clock and the region's.
func (inf *Infrastructure) beginIngest(source string) ingestRun {
	run := ingestRun{inf: inf, prof: inf.profIngest.Start()}
	var buf [48]byte
	name := strconv.AppendInt(append(append(buf[:0], source...), '-'), inf.ingestSeq.Add(1), 10)
	run.root = inf.Tracer.Start(string(name), source)
	run.ctx = run.root.Context()
	return run
}

// end closes the run: it folds the run's stats into the cumulative pipeline
// counters and observes its end-to-end latency — the root span's own
// duration — offering the trace id as a histogram exemplar so a tail-latency
// bucket on /metrics resolves to an inspectable trace. It returns the seconds
// it observed, so a caller with a second histogram for the same interval (the
// per-camera e2e) feeds it the same reading. stats stays the caller's: escape analysis does not see
// through struct fields, so a pointer kept in the run would move every
// caller's stats to the heap.
func (run *ingestRun) end(stats *PipelineStats) float64 {
	run.prof.End()
	run.root.End()
	inf := run.inf
	inf.pipeCollected.Add(stats.Collected)
	inf.pipeStreamed.Add(stats.Streamed)
	inf.pipeStored.Add(stats.Stored)
	inf.pipeDropped.Add(stats.Dropped)
	inf.pipeDeadLettered.Add(stats.DeadLettered)
	inf.pipeRetries.Add(stats.Retries)
	seconds := run.root.Finish.Sub(run.root.Begin).Seconds()
	inf.ingestSeconds.ObserveExemplar(seconds, run.ctx.TraceID)
	return seconds
}

// stage is one pipeline stage in flight: a tier-tagged span and the profile
// region that attributes its time, opened together and closed by one End.
type stage struct {
	span *telemetry.Span
	prof profile.Span
}

// openStage opens a child span of parent on the given tier and enters region
// (nil for a span no region attributes).
func openStage(parent *telemetry.Span, name, tier string, region *profile.Region) stage {
	return stage{span: parent.Child(name, tier), prof: region.Start()}
}

// End leaves the region and closes the span. The span may still be nil: the
// storage drain enters its region before the first poll but only learns which
// trace its span continues once a record arrives.
func (s stage) End() {
	s.prof.End()
	if s.span != nil {
		s.span.End()
	}
}

// remoteTierSpan opens the consumer-side span of a broker hop: it continues
// the trace propagated in the record headers (the producer injected its root
// context before the hop), falling back to a local child of the running
// ingest when no context survived — so the consuming tier's work is never
// orphaned from the causal tree.
func (inf *Infrastructure) remoteTierSpan(headers map[string]string, fallback *telemetry.Span, name, tier string) *telemetry.Span {
	if ctx, ok := telemetry.Extract(headers); ok {
		return inf.Tracer.StartRemote(ctx, name, tier)
	}
	return fallback.Child(name, tier)
}
