package stream

import (
	"time"

	"repro/internal/telemetry"
)

// BusMetrics holds the pre-registered instruments a MeteredBus records
// into. Instruments are created once at wiring time so the produce/poll hot
// path never touches the registry.
type BusMetrics struct {
	Produces      *telemetry.Counter
	ProduceErrors *telemetry.Counter
	ProducedBytes *telemetry.Counter
	Polls         *telemetry.Counter
	PollErrors    *telemetry.Counter
	PolledRecords *telemetry.Counter

	ProduceSeconds *telemetry.Histogram
	PollSeconds    *telemetry.Histogram
}

// NewBusMetrics registers the cityinfra_broker_* metric family on r.
func NewBusMetrics(r *telemetry.Registry) *BusMetrics {
	return &BusMetrics{
		Produces:      r.Counter("cityinfra_broker_produce_total", "records produced to the broker"),
		ProduceErrors: r.Counter("cityinfra_broker_produce_errors_total", "failed produce calls"),
		ProducedBytes: r.Counter("cityinfra_broker_produced_bytes_total", "payload bytes produced"),
		Polls:         r.Counter("cityinfra_broker_poll_total", "poll calls"),
		PollErrors:    r.Counter("cityinfra_broker_poll_errors_total", "failed poll calls"),
		PolledRecords: r.Counter("cityinfra_broker_polled_records_total", "records handed to consumers"),
		ProduceSeconds: r.Histogram("cityinfra_broker_produce_seconds",
			"produce call latency in seconds", nil),
		PollSeconds: r.Histogram("cityinfra_broker_poll_seconds",
			"poll call latency in seconds", nil),
	}
}

// MeteredBus decorates any Bus with telemetry, so the ingestion pipelines
// keep metering whether they talk to the raw broker or to a fault-injecting
// wrapper — the call sites never know the backend.
type MeteredBus struct {
	next Bus
	m    *BusMetrics
}

var _ Bus = (*MeteredBus)(nil)

// NewMeteredBus wraps next.
func NewMeteredBus(next Bus, m *BusMetrics) *MeteredBus {
	return &MeteredBus{next: next, m: m}
}

// Unwrap returns the decorated bus.
func (b *MeteredBus) Unwrap() Bus { return b.next }

// Produce forwards to the underlying bus, recording latency and outcome.
func (b *MeteredBus) Produce(topicName, key string, value []byte) (int, int64, error) {
	return b.ProduceH(topicName, key, value, nil)
}

// ProduceH forwards to the underlying bus, recording latency and outcome.
func (b *MeteredBus) ProduceH(topicName, key string, value []byte, headers map[string]string) (int, int64, error) {
	start := time.Now()
	p, off, err := b.next.ProduceH(topicName, key, value, headers)
	b.m.ProduceSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		b.m.ProduceErrors.Inc()
		return p, off, err
	}
	b.m.Produces.Inc()
	b.m.ProducedBytes.Add(len(value))
	return p, off, nil
}

// Poll forwards to the underlying bus, recording latency, outcome, and the
// number of records handed out.
func (b *MeteredBus) Poll(groupName, topicName string, max int) ([]Record, error) {
	start := time.Now()
	recs, err := b.next.Poll(groupName, topicName, max)
	b.m.PollSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		b.m.PollErrors.Inc()
		return recs, err
	}
	b.m.Polls.Inc()
	b.m.PolledRecords.Add(len(recs))
	return recs, nil
}

// CommitPolled forwards to the underlying bus. Commits are local offset
// metadata updates, not broker round trips, so they are not timed.
func (b *MeteredBus) CommitPolled(groupName, topicName string) error {
	return b.next.CommitPolled(groupName, topicName)
}
