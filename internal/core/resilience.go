package core

import (
	"repro/internal/docstore"
	"repro/internal/faults"
	"repro/internal/hbase"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// EnableChaos attaches a deterministic fault injector to every storage and
// streaming seam: the broker produce/poll surface, HDFS datanode I/O, the
// HBase WAL/flush path, and docstore inserts. The pipelines keep running
// through the shared retry policy — this is how experiment E18 stresses the
// stack without touching pipeline code. The bus itself is not replaced, so
// whatever wraps inf.Bus keeps seeing every pipeline call.
func (inf *Infrastructure) EnableChaos(inj *faults.Injector) {
	inf.Injector = inj
	inf.bus.inj = inj
	inf.Broker.SetFaultHook(inj.ClusterHook())
	inf.HDFS.SetFaultHook(inj.HDFSHook())
	inf.CrimeTab.SetFaultHook(inj.HBaseHook())
	inf.VideoTab.SetFaultHook(inj.HBaseHook())
	inf.storeFault = inj.StoreHook()
	inf.Events.Log(telemetry.LevelWarn, telemetry.CompChaos, "", "fault injection enabled on broker, replication, HDFS, HBase, and docstore seams")
}

// DisableChaos detaches the injector and restores direct seams.
func (inf *Infrastructure) DisableChaos() {
	inf.Injector = nil
	inf.bus.inj = nil
	inf.Broker.SetFaultHook(nil)
	inf.HDFS.SetFaultHook(nil)
	inf.CrimeTab.SetFaultHook(nil)
	inf.VideoTab.SetFaultHook(nil)
	inf.storeFault = nil
	inf.Events.Log(telemetry.LevelInfo, telemetry.CompChaos, "", "fault injection disabled; direct seams restored")
}

// pipelineBus is the one decorator between the pipelines and the broker. It
// counts every produce and poll into the cityinfra_broker_* counters and,
// while chaos is on, asks the injector for a fault first — outside every
// lock and before the broker's profile regions open. Injected failures count
// as errors like real ones. Calls made on inf.Broker directly bypass it and
// draw no faults.
type pipelineBus struct {
	next *stream.Cluster
	inj  *faults.Injector // nil: no faults

	produces, produceErrors, producedBytes *telemetry.Counter
	polls, pollErrors, polledRecords       *telemetry.Counter
}

var _ stream.Bus = (*pipelineBus)(nil)

// newPipelineBus registers the cityinfra_broker_* call counters on r.
func newPipelineBus(next *stream.Cluster, r *telemetry.Registry) *pipelineBus {
	return &pipelineBus{
		next:          next,
		produces:      r.Counter("cityinfra_broker_produce_total", "records produced to the broker"),
		produceErrors: r.Counter("cityinfra_broker_produce_errors_total", "failed produce calls"),
		producedBytes: r.Counter("cityinfra_broker_produced_bytes_total", "payload bytes produced"),
		polls:         r.Counter("cityinfra_broker_poll_total", "poll calls"),
		pollErrors:    r.Counter("cityinfra_broker_poll_errors_total", "failed poll calls"),
		polledRecords: r.Counter("cityinfra_broker_polled_records_total", "records handed to consumers"),
	}
}

func (b *pipelineBus) Produce(topic, key string, value []byte) (int, int64, error) {
	return b.ProduceH(topic, key, value, nil)
}

// ProduceH charges faults to "bus.produce". The record key — the camera id
// on the frames topic — rides into the decision so TargetKeys can partition
// one camera's uplink.
func (b *pipelineBus) ProduceH(topic, key string, value []byte, headers map[string]string) (int, int64, error) {
	if b.inj != nil {
		f := b.inj.DecideKey("bus.produce", key)
		f.Burn()
		if f.Err != nil {
			b.produceErrors.Inc()
			return 0, 0, f.Err
		}
	}
	p, off, err := b.next.ProduceH(topic, key, value, headers)
	if err != nil {
		b.produceErrors.Inc()
		return p, off, err
	}
	b.produces.Inc()
	b.producedBytes.Add(len(value))
	return p, off, nil
}

// Poll charges faults to "bus.poll".
func (b *pipelineBus) Poll(group, topic string, max int) ([]stream.Record, error) {
	if b.inj != nil {
		f := b.inj.Decide("bus.poll")
		f.Burn()
		if f.Err != nil {
			b.pollErrors.Inc()
			return nil, f.Err
		}
	}
	recs, err := b.next.Poll(group, topic, max)
	if err != nil {
		b.pollErrors.Inc()
		return recs, err
	}
	b.polls.Inc()
	b.polledRecords.Add(len(recs))
	return recs, nil
}

// CommitPolled neither injects nor counts: an offset commit is local group
// metadata, and failing it after the batch was processed would only create
// duplicates the dedup layer already absorbs.
func (b *pipelineBus) CommitPolled(group, topic string) error {
	return b.next.CommitPolled(group, topic)
}

// retried runs op once under the shared policy and charges this call's own
// backoffs to stats. Per-call accounting, not a diff of the policy-wide
// counters: the shared policy serves every concurrent ingest, so a Stats()
// delta would absorb other pipelines' retries.
func (inf *Infrastructure) retried(stats *PipelineStats, op func() error) error {
	cs, err := inf.Retry.DoStats(op)
	stats.Retries += cs.Retries
	return err
}

// redriven gives op the same second-chance structure as dead-lettered
// produce batches: up to RedriveRounds additional policy runs, so a fault
// burst or an open breaker window has to outlast every round to defeat a
// write. Total attempts stay bounded by MaxAttempts × (RedriveRounds + 1).
func (inf *Infrastructure) redriven(stats *PipelineStats, op func() error) error {
	err := inf.retried(stats, op)
	for round := 1; err != nil && round <= inf.RedriveRounds; round++ {
		err = inf.retried(stats, op)
	}
	return err
}

// produceWithRetry pushes one record through the bus under the shared
// policy. headers carry the producing trace's context across the broker hop
// (nil is fine).
func (inf *Infrastructure) produceWithRetry(stats *PipelineStats, topic, key string, body []byte, headers map[string]string) error {
	return inf.retried(stats, func() error {
		_, _, err := inf.Bus.ProduceH(topic, key, body, headers)
		return err
	})
}

// putCell writes one HBase cell, redriven like every other store write.
func (inf *Infrastructure) putCell(stats *PipelineStats, tab *hbase.Table, row, family, qualifier string, value []byte) error {
	return inf.redriven(stats, func() error { return tab.Put(row, family, qualifier, value) })
}

// insertDoc writes one document, redriven, honoring the chaos injector's
// store hook.
func (inf *Infrastructure) insertDoc(stats *PipelineStats, col *docstore.Collection, doc docstore.Document) error {
	return inf.redriven(stats, func() error {
		if inf.storeFault != nil {
			if err := inf.storeFault(); err != nil {
				return err
			}
		}
		_, err := col.Insert(doc)
		return err
	})
}

// deadLetter quarantines one failed record and keeps the books: captured
// records count as DeadLettered, records the quarantine itself cannot hold
// count as Dropped. traceID ties the quarantine back to the ingest run (or
// the propagated producer trace) it fell out of.
func (inf *Infrastructure) deadLetter(stats *PipelineStats, source, stage, key string, body []byte, cause error, traceID string) {
	if inf.quarantine(source, stage, key, body, cause, traceID) {
		stats.DeadLettered++
	} else {
		stats.Dropped++
	}
}

// quarantine parks an undeliverable record in the dead-letter collection so
// it can be inspected and replayed instead of being lost. It reports whether
// the record was captured; the dead-letter store itself is not subject to
// chaos (it is the thing that must not fail). traceID links the quarantined
// record — in both the stored document and the event log — back to the
// ingestion trace it fell out of.
func (inf *Infrastructure) quarantine(source, stage, key string, body []byte, cause error, traceID string) bool {
	doc := docstore.Document{
		"source": source,
		"stage":  stage,
		"key":    key,
		"body":   string(body),
		"cause":  cause.Error(),
	}
	if traceID != "" {
		doc["traceId"] = traceID
	}
	_, err := inf.DocDB.Collection("deadletter").Insert(doc)
	// The component carries the failing stage (deadletter/<stage>) so the
	// incident scorer can attribute the loss to the backend behind it.
	comp := telemetry.Component(telemetry.CompDeadLetter, stage)
	if err == nil {
		inf.Events.Log(telemetry.LevelWarn, comp, traceID,
			"%s/%s record %q quarantined: %v", source, stage, key, cause)
	} else {
		inf.Events.Log(telemetry.LevelError, comp, traceID,
			"%s/%s record %q dropped — quarantine failed: %v", source, stage, key, cause)
	}
	return err == nil
}

// DeadLetters returns the quarantined records for one source ("" = all).
func (inf *Infrastructure) DeadLetters(source string) ([]docstore.Document, error) {
	col := inf.DocDB.Collection("deadletter")
	if source == "" {
		return col.Find(docstore.Query{})
	}
	return col.Find(docstore.Query{Conditions: []docstore.Condition{
		docstore.Eq("source", source),
	}})
}
