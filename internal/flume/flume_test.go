package flume

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// testConfig is an agent config whose policy makes the given attempts per
// batch on a simulated clock, with a fresh dead-letter queue and telemetry
// on a registry of its own.
func testConfig(batch, attempts int) Config {
	return Config{
		BatchSize:  batch,
		Retry:      retry.NewPolicy(retry.Config{MaxAttempts: attempts}, 1),
		DeadLetter: retry.NewDLQ[Event](),
		Telemetry:  NewAgentTelemetry(telemetry.NewRegistry()),
	}
}

func makeEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			Headers: map[string]string{"seq": strconv.Itoa(i)},
			Body:    []byte("event-" + strconv.Itoa(i)),
		}
	}
	return out
}

func TestPumpDeliversAllInOrder(t *testing.T) {
	var got []Event
	var mu sync.Mutex
	sink := FuncSink(func(events []Event) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, events...)
		return nil
	})
	cfg := testConfig(7, 1)
	a := NewAgent("a1", NewSliceSource(makeEvents(100)), sink, cfg)
	delivered, err := a.Pump(1000)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 100 || len(got) != 100 {
		t.Fatalf("delivered %d, sink saw %d", delivered, len(got))
	}
	for i, e := range got {
		if e.Headers["seq"] != strconv.Itoa(i) {
			t.Fatalf("out of order at %d: %v", i, e.Headers)
		}
	}
	if !a.Drained() {
		t.Fatal("agent should be drained")
	}
	tel := cfg.Telemetry
	if tel.EventsDelivered.Value() != 100 || tel.BatchesDelivered.Value() != 15 || tel.EventsDropped.Value() != 0 {
		t.Fatalf("delivered %d events in %d batches, dropped %d",
			tel.EventsDelivered.Value(), tel.BatchesDelivered.Value(), tel.EventsDropped.Value())
	}
}

func TestSinkRetriesThenSucceeds(t *testing.T) {
	failures := 2
	attempts := 0
	sink := FuncSink(func(events []Event) error {
		attempts++
		if attempts <= failures {
			return errors.New("downstream hiccup")
		}
		return nil
	})
	cfg := testConfig(5, 3)
	cfg.Retry.WithClock(retry.NewManualClock(time.Time{}))
	a := NewAgent("a", NewSliceSource(makeEvents(5)), sink, cfg)
	delivered, err := a.Pump(10)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 5 {
		t.Fatalf("delivered %d", delivered)
	}
	if m := a.Metrics(); m.Retries != 2 {
		t.Fatalf("retries = %d", m.Retries)
	}
	if tel := cfg.Telemetry; tel.EventsDropped.Value() != 0 || cfg.DeadLetter.Len() != 0 {
		t.Fatalf("dropped %d, dead letters %d", tel.EventsDropped.Value(), cfg.DeadLetter.Len())
	}
}

func TestSinkExhaustsRetriesAndDrops(t *testing.T) {
	sink := FuncSink(func(events []Event) error { return errors.New("permanently down") })
	cfg := testConfig(4, 3)
	cfg.Retry.WithClock(retry.NewManualClock(time.Time{}))
	a := NewAgent("a", NewSliceSource(makeEvents(4)), sink, cfg)
	delivered, err := a.Pump(5)
	if err == nil {
		t.Fatal("want delivery error")
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d", delivered)
	}
	if m := a.Metrics(); m.Retries != 2 {
		t.Fatalf("retries = %d", m.Retries)
	}
	if tel := cfg.Telemetry; tel.EventsDropped.Value() != 4 || cfg.DeadLetter.Len() != 4 {
		t.Fatalf("dropped %d, dead letters %d", tel.EventsDropped.Value(), cfg.DeadLetter.Len())
	}
}

// TestPumpHandsSourceBatchToSink: with no channel between them, each sink
// call receives the very slice the source returned — one batch per Pump
// step, never a copy and never merged with a neighbour.
func TestPumpHandsSourceBatchToSink(t *testing.T) {
	var taken [][]Event
	src := NewSliceSource(makeEvents(10))
	tap := FuncSource(func(max int) ([]Event, bool) {
		events, ok := src.Next(max)
		if ok {
			taken = append(taken, events)
		}
		return events, ok
	})
	var got [][]Event
	sink := FuncSink(func(events []Event) error {
		got = append(got, events)
		return nil
	})
	a := NewAgent("direct", tap, sink, testConfig(4, 1))
	if n, err := a.Pump(1); err != nil || n != 4 {
		t.Fatalf("first pump delivered %d, err %v; want 4", n, err)
	}
	if len(got) != 1 || len(taken) != 1 {
		t.Fatalf("after one step: %d source batches, %d sink calls; want 1 and 1", len(taken), len(got))
	}
	if _, err := a.Pump(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(taken) != 3 {
		t.Fatalf("%d source batches, %d sink calls; want 3 and 3", len(taken), len(got))
	}
	for i := range got {
		if len(got[i]) != len(taken[i]) || &got[i][0] != &taken[i][0] {
			t.Fatalf("sink call %d got %d events, not source batch %d (%d events)", i, len(got[i]), i, len(taken[i]))
		}
	}
}

func TestNewAgentRequiresRetryAndDeadLetter(t *testing.T) {
	sink := FuncSink(func([]Event) error { return nil })
	for name, mutate := range map[string]func(*Config){
		"no retry":       func(c *Config) { c.Retry = nil },
		"no dead letter": func(c *Config) { c.DeadLetter = nil },
	} {
		cfg := testConfig(4, 1)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewAgent did not panic", name)
				}
			}()
			NewAgent("a", NewSliceSource(makeEvents(1)), sink, cfg)
		}()
	}
}

func TestBrokerSinkIntegration(t *testing.T) {
	broker, err := stream.NewCluster(stream.ClusterConfig{Nodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.CreateTopic("raw", 2); err != nil {
		t.Fatal(err)
	}
	sink := FuncSink(func(events []Event) error {
		for _, e := range events {
			if _, _, err := broker.Produce("raw", e.Headers["seq"], e.Body); err != nil {
				return err
			}
		}
		return nil
	})
	a := NewAgent("to-broker", NewSliceSource(makeEvents(50)), sink, testConfig(8, 1))
	if _, err := a.Pump(100); err != nil {
		t.Fatal(err)
	}
	lag, err := broker.Lag("g", "raw")
	if err != nil {
		t.Fatal(err)
	}
	if lag != 50 {
		t.Fatalf("broker has %d records", lag)
	}
}

func TestStreamingSourceKeepsProducing(t *testing.T) {
	n := 0
	src := FuncSource(func(max int) ([]Event, bool) {
		out := []Event{{Body: []byte(strconv.Itoa(n))}}
		n++
		return out, true // never exhausted
	})
	count := 0
	sink := FuncSink(func(events []Event) error {
		count += len(events)
		return nil
	})
	a := NewAgent("stream", src, sink, testConfig(1, 1))
	if _, err := a.Pump(25); err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Fatalf("streaming delivered %d", count)
	}
	if a.Drained() {
		t.Fatal("streaming source must never drain")
	}
}
