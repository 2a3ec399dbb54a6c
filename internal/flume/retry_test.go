package flume

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/retry"
)

// TestRetryExhaustionDeadLetters verifies the satellite requirement: a sink
// that never recovers sends its events to the dead-letter queue with full
// accounting, and the agent keeps draining instead of wedging.
func TestRetryExhaustionDeadLetters(t *testing.T) {
	clk := retry.NewManualClock(time.Time{})
	cfg := testConfig(5, 3)
	cfg.Retry.WithClock(clk)

	down := errors.New("sink down")
	deliveries := 0
	sink := FuncSink(func(events []Event) error { deliveries++; return down })
	a := NewAgent("dlq", NewSliceSource(makeEvents(10)), sink, cfg)
	for !a.Drained() {
		if _, err := a.Pump(4); err == nil {
			t.Fatal("expected delivery errors")
		}
	}
	if tel := cfg.Telemetry; tel.EventsDropped.Value() != 10 || tel.EventsDelivered.Value() != 0 {
		t.Fatalf("dropped %d, delivered %d", tel.EventsDropped.Value(), tel.EventsDelivered.Value())
	}
	// 2 batches × 3 attempts each.
	if deliveries != 6 {
		t.Fatalf("deliveries = %d", deliveries)
	}
	if m := a.Metrics(); m.Retries != 4 {
		t.Fatalf("retries = %d", m.Retries)
	}
	if cfg.DeadLetter.Len() != 10 {
		t.Fatalf("dead letters = %d", cfg.DeadLetter.Len())
	}
	for _, l := range cfg.DeadLetter.Letters() {
		if l.Attempts != 3 || l.Cause != down.Error() {
			t.Fatalf("letter = %+v", l)
		}
	}
	// Backoff ran on the simulated clock only: 2 batches × (5+10)ms, jittered.
	if clk.Slept() == 0 {
		t.Fatal("no simulated backoff recorded")
	}
}

// TestRetryPolicyRecoversMidway: a sink that heals after two failures
// delivers everything with the shared policy and nothing is dead-lettered.
func TestRetryPolicyRecoversMidway(t *testing.T) {
	cfg := testConfig(4, 5)
	fails := 2
	got := 0
	sink := FuncSink(func(events []Event) error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		got += len(events)
		return nil
	})
	a := NewAgent("heal", NewSliceSource(makeEvents(8)), sink, cfg)
	for !a.Drained() {
		if _, err := a.Pump(2); err != nil {
			t.Fatalf("pump err despite recovery: %v", err)
		}
	}
	if got != 8 || cfg.DeadLetter.Len() != 0 {
		t.Fatalf("delivered %d, dlq %d", got, cfg.DeadLetter.Len())
	}
	if m, tel := a.Metrics(), cfg.Telemetry; m.Retries != 2 || tel.EventsDelivered.Value() != 8 || tel.EventsDropped.Value() != 0 {
		t.Fatalf("retries %d, delivered %d, dropped %d", m.Retries, tel.EventsDelivered.Value(), tel.EventsDropped.Value())
	}
}

// TestDedupSinkIdempotentPerEvent: a mid-batch failure must not redeliver
// the successful prefix when the batch is retried.
func TestDedupSinkIdempotentPerEvent(t *testing.T) {
	delivered := make(map[string]int)
	failOn := "3"
	sink := NewDedupSink(
		func(e Event) string { return e.Headers["id"] },
		func(e Event) error {
			id := e.Headers["id"]
			if id == failOn {
				return fmt.Errorf("event %s rejected", id)
			}
			delivered[id]++
			return nil
		},
	)
	batch := make([]Event, 5)
	for i := range batch {
		batch[i] = Event{Headers: map[string]string{"id": strconv.Itoa(i)}}
	}
	if err := sink.Deliver(batch); err == nil {
		t.Fatal("expected mid-batch failure")
	}
	// Retry with the fault cleared: only 3 and 4 get delivered.
	failOn = ""
	if err := sink.Deliver(batch); err != nil {
		t.Fatal(err)
	}
	for id, n := range delivered {
		if n != 1 {
			t.Fatalf("event %s delivered %d times", id, n)
		}
	}
	if len(delivered) != 5 {
		t.Fatalf("delivered %d distinct events", len(delivered))
	}
	if sink.Skipped() != 3 {
		t.Fatalf("skipped=%d", sink.Skipped())
	}
}

// TestAgentWithDedupSinkNoDuplicates runs the full agent path against a
// flaky per-event sink and checks exactly-once delivery of every event.
func TestAgentWithDedupSinkNoDuplicates(t *testing.T) {
	counts := make(map[string]int)
	calls := 0
	sink := NewDedupSink(
		func(e Event) string { return string(e.Body) },
		func(e Event) error {
			calls++
			if calls%4 == 0 { // deterministic periodic failure mid-stream
				return errors.New("flaky")
			}
			counts[string(e.Body)]++
			return nil
		},
	)
	a := NewAgent("dedup", NewSliceSource(makeEvents(30)), sink, testConfig(7, 6))
	for !a.Drained() {
		if _, err := a.Pump(4); err != nil {
			t.Fatalf("pump: %v", err)
		}
	}
	if len(counts) != 30 {
		t.Fatalf("distinct events delivered = %d", len(counts))
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("event %s delivered %d times", id, n)
		}
	}
}
