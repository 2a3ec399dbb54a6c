// Package flume implements source → channel → sink ingestion agents modeled
// on Apache Flume, the paper's "data import tool for real-time data
// transfers from various information sources". Sources produce events,
// bounded channels buffer them, and sinks deliver batches with retry;
// delivery metrics are tracked per agent.
//
// Agents are driven synchronously (Pump): the caller owns the schedule, so
// pipelines replay per seed.
package flume

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/retry"
)

// ErrChannelFull reports a source batch refused by a full channel.
var ErrChannelFull = errors.New("flume: channel full")

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

// Config tunes an agent.
type Config struct {
	ChannelCapacity int
	BatchSize       int
	// MaxRetries is the legacy fixed retry count, used only when Retry is
	// nil.
	MaxRetries int
	// Retry, when set, replaces the fixed retry loop with the shared
	// policy engine (exponential backoff with seeded jitter on an
	// injectable clock, optional circuit breaker).
	Retry *retry.Policy
	// DeadLetter, when set, receives the events of batches that exhaust
	// their retries instead of losing them silently; callers can inspect
	// or redrive the queue.
	DeadLetter *retry.DLQ[Event]
	// Telemetry, when set, records batch delivery outcomes into the shared
	// metrics registry (see NewAgentTelemetry).
	Telemetry *AgentTelemetry
}

// DefaultConfig returns Flume-like defaults scaled for simulation.
func DefaultConfig() Config {
	return Config{ChannelCapacity: 1024, BatchSize: 32, MaxRetries: 3}
}

// Metrics counts agent activity.
type Metrics struct {
	Received  int
	Delivered int
	Retries   int
	Dropped   int // events dropped after exhausting retries
}

// Agent moves events from a source through a bounded channel to a sink.
type Agent struct {
	name string
	cfg  Config
	src  Source
	sink Sink

	mu      sync.Mutex
	buffer  []Event
	metrics Metrics
	srcDone bool
}

// NewAgent builds an agent. Zero-valued config fields get defaults.
func NewAgent(name string, src Source, sink Sink, cfg Config) *Agent {
	def := DefaultConfig()
	if cfg.ChannelCapacity <= 0 {
		cfg.ChannelCapacity = def.ChannelCapacity
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = def.BatchSize
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = def.MaxRetries
	}
	return &Agent{name: name, cfg: cfg, src: src, sink: sink}
}

// Metrics returns a snapshot of counters.
func (a *Agent) Metrics() Metrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.metrics
}

// ingestLocked pulls one source batch into the channel.
func (a *Agent) ingestLocked() error {
	if a.srcDone {
		return nil
	}
	space := a.cfg.ChannelCapacity - len(a.buffer)
	if space <= 0 {
		return fmt.Errorf("%w: capacity %d", ErrChannelFull, a.cfg.ChannelCapacity)
	}
	max := a.cfg.BatchSize
	if max > space {
		max = space
	}
	events, ok := a.src.Next(max)
	if !ok {
		a.srcDone = true
		return nil
	}
	a.buffer = append(a.buffer, events...)
	a.metrics.Received += len(events)
	return nil
}

// drainLocked delivers one batch from the channel with retries.
func (a *Agent) drainLocked() (delivered int, err error) {
	if len(a.buffer) == 0 {
		return 0, nil
	}
	n := a.cfg.BatchSize
	if n > len(a.buffer) {
		n = len(a.buffer)
	}
	batch := a.buffer[:n]
	attempts, lastErr := a.deliverBatch(batch)
	if a.cfg.Telemetry != nil {
		a.cfg.Telemetry.observeBatch(n, attempts, lastErr)
	}
	a.metrics.Retries += attempts - 1
	if lastErr == nil {
		a.buffer = a.buffer[n:]
		a.metrics.Delivered += n
		return n, nil
	}
	// Exhausted retries: move the batch out of the channel to keep the
	// pipeline draining. With a dead-letter queue configured the events are
	// parked there for later redrive; otherwise they are dropped, as a
	// Flume channel with a failing sink would eventually do via transaction
	// rollback + overflow.
	a.buffer = a.buffer[n:]
	a.metrics.Dropped += n
	if a.cfg.DeadLetter != nil {
		for _, e := range batch {
			a.cfg.DeadLetter.Add(e, lastErr, attempts)
		}
	}
	return 0, fmt.Errorf("deliver batch on %s: %w", a.name, lastErr)
}

// deliverBatch pushes one batch through the sink, via the shared retry
// policy when configured or the legacy fixed-count loop otherwise. It
// returns how many attempts ran and the final error (nil on success).
func (a *Agent) deliverBatch(batch []Event) (attempts int, err error) {
	if a.cfg.Retry != nil {
		err = a.cfg.Retry.Do(func() error {
			attempts++
			return a.sink.Deliver(batch)
		})
		if attempts == 0 {
			// Every attempt was short-circuited by an open breaker.
			attempts = 1
		}
		return attempts, err
	}
	for attempt := 0; attempt <= a.cfg.MaxRetries; attempt++ {
		attempts++
		if err = a.sink.Deliver(batch); err == nil {
			return attempts, nil
		}
	}
	return attempts, err
}

// Pump synchronously moves up to batches source batches through the agent.
// It returns the number of events delivered. Source exhaustion is not an
// error; sink failures surface after retries.
func (a *Agent) Pump(batches int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	var firstErr error
	for i := 0; i < batches; i++ {
		if err := a.ingestLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		n, err := a.drainLocked()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		total += n
		if a.srcDone && len(a.buffer) == 0 {
			break
		}
	}
	return total, firstErr
}

// Drained reports whether the source is exhausted and the channel empty.
func (a *Agent) Drained() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.srcDone && len(a.buffer) == 0
}
