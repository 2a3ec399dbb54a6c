package flume

import "repro/internal/telemetry"

// AgentTelemetry holds pre-registered instruments for flume agents. One
// instance is shared by all agents in an infrastructure (metric names carry
// no per-agent label: the fleet is small and the report is per-tier), and a
// nil instance disables instrumentation entirely — agents never pay for
// telemetry they were not wired with.
type AgentTelemetry struct {
	BatchesDelivered *telemetry.Counter
	EventsDelivered  *telemetry.Counter
	EventsDropped    *telemetry.Counter
	Retries          *telemetry.Counter
}

// NewAgentTelemetry registers the cityinfra_flume_* metric family on r.
func NewAgentTelemetry(r *telemetry.Registry) *AgentTelemetry {
	return &AgentTelemetry{
		BatchesDelivered: r.Counter("cityinfra_flume_batches_delivered_total", "sink batches delivered"),
		EventsDelivered:  r.Counter("cityinfra_flume_events_delivered_total", "events delivered to sinks"),
		EventsDropped:    r.Counter("cityinfra_flume_events_dropped_total", "events dropped or dead-lettered after exhausting retries"),
		Retries:          r.Counter("cityinfra_flume_sink_retries_total", "sink delivery retries"),
	}
}

// observeBatch records one batch delivery outcome.
func (t *AgentTelemetry) observeBatch(events, attempts int, err error) {
	t.Retries.Add(attempts - 1)
	if err == nil {
		t.BatchesDelivered.Inc()
		t.EventsDelivered.Add(events)
	} else {
		t.EventsDropped.Add(events)
	}
}
