// Package flume implements source → sink ingestion agents modeled on Apache
// Flume, the paper's "data import tool for real-time data transfers from
// various information sources". Sources produce events in batches, and
// sinks deliver each batch under the shared retry policy; a batch that
// exhausts its retries is dead-lettered.
//
// Agents are driven synchronously (Pump): the caller owns the schedule, so
// pipelines replay per seed. Each Pump step takes one source batch and
// delivers it before taking the next, so no Flume channel is needed between
// the two: nothing ever waits in one.
package flume

import (
	"fmt"
	"sync"

	"repro/internal/retry"
)

// Event is one unit of ingested data.
type Event struct {
	Headers map[string]string
	Body    []byte
}

// Source produces events. Next returns up to max events; ok=false signals
// the source is exhausted (batch sources) — streaming sources always return
// true.
type Source interface {
	Next(max int) (events []Event, ok bool)
}

// Sink delivers a batch of events downstream, returning an error to trigger
// retry.
type Sink interface {
	Deliver(events []Event) error
}

// SliceSource replays a fixed set of events (useful for batch ingestion and
// tests).
type SliceSource struct {
	mu     sync.Mutex
	events []Event
	pos    int
}

var _ Source = (*SliceSource)(nil)

// NewSliceSource wraps events in a source.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: append([]Event(nil), events...)}
}

// Next returns the next batch; ok=false once drained.
func (s *SliceSource) Next(max int) ([]Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos >= len(s.events) {
		return nil, false
	}
	hi := s.pos + max
	if hi > len(s.events) {
		hi = len(s.events)
	}
	out := s.events[s.pos:hi]
	s.pos = hi
	return out, true
}

// FuncSource adapts a function to the Source interface.
type FuncSource func(max int) ([]Event, bool)

// Next calls the wrapped function.
func (f FuncSource) Next(max int) ([]Event, bool) { return f(max) }

// FuncSink adapts a function to the Sink interface.
type FuncSink func(events []Event) error

// Deliver calls the wrapped function.
func (f FuncSink) Deliver(events []Event) error { return f(events) }

// Config tunes an agent. Retry and DeadLetter are required.
type Config struct {
	// BatchSize is the most events one source batch carries (<=0 means 32).
	BatchSize int
	// Retry delivers each batch: exponential backoff with seeded jitter on
	// an injectable clock, and an optional circuit breaker.
	Retry *retry.Policy
	// DeadLetter receives the events of batches that exhaust their retries
	// instead of losing them silently; callers can inspect or redrive the
	// queue.
	DeadLetter *retry.DLQ[Event]
	// Telemetry, when set, records batch delivery outcomes into the shared
	// metrics registry (see NewAgentTelemetry).
	Telemetry *AgentTelemetry
}

// Metrics counts agent activity.
type Metrics struct {
	Retries int // sink delivery attempts beyond each batch's first
}

// Agent moves events from a source to a sink, one batch at a time.
type Agent struct {
	name string
	cfg  Config
	src  Source
	sink Sink

	mu      sync.Mutex
	metrics Metrics
	srcDone bool
}

// NewAgent builds an agent. It panics if cfg lacks Retry or DeadLetter.
func NewAgent(name string, src Source, sink Sink, cfg Config) *Agent {
	if cfg.Retry == nil || cfg.DeadLetter == nil {
		panic("flume: agent " + name + " needs Config.Retry and Config.DeadLetter")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	return &Agent{name: name, cfg: cfg, src: src, sink: sink}
}

// Metrics returns a snapshot of counters.
func (a *Agent) Metrics() Metrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.metrics
}

// deliverLocked delivers one source batch through the retry policy,
// dead-lettering its events if the retries run out.
func (a *Agent) deliverLocked(batch []Event) (delivered int, err error) {
	attempts := 0
	err = a.cfg.Retry.Do(func() error {
		attempts++
		return a.sink.Deliver(batch)
	})
	if attempts == 0 {
		// Every attempt was short-circuited by an open breaker.
		attempts = 1
	}
	if a.cfg.Telemetry != nil {
		a.cfg.Telemetry.observeBatch(len(batch), attempts, err)
	}
	a.metrics.Retries += attempts - 1
	if err == nil {
		return len(batch), nil
	}
	// Exhausted retries: park the events for later redrive and keep the
	// pipeline draining.
	for _, e := range batch {
		a.cfg.DeadLetter.Add(e, err, attempts)
	}
	return 0, fmt.Errorf("deliver batch on %s: %w", a.name, err)
}

// Pump synchronously moves up to batches source batches through the agent.
// It returns the number of events delivered. Source exhaustion is not an
// error; sink failures surface after retries.
func (a *Agent) Pump(batches int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	var firstErr error
	for i := 0; i < batches && !a.srcDone; i++ {
		events, ok := a.src.Next(a.cfg.BatchSize)
		if !ok {
			a.srcDone = true
			break
		}
		if len(events) == 0 {
			continue
		}
		n, err := a.deliverLocked(events)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		total += n
	}
	return total, firstErr
}

// Drained reports whether the source is exhausted.
func (a *Agent) Drained() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.srcDone
}
