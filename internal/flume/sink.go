package flume

import "sync"

// DedupSink turns a per-event delivery function into an idempotent Sink:
// every event is keyed, successfully delivered keys are remembered, and
// retried batches skip their already-delivered prefix. This is what makes
// batch retries safe — without it, a sink that fails mid-batch would
// redeliver the events before the failure point on every retry, duplicating
// records downstream.
type DedupSink struct {
	mu      sync.Mutex
	key     func(Event) string
	deliver func(Event) error
	seen    map[string]struct{}
	skipped int
}

var _ Sink = (*DedupSink)(nil)

// NewDedupSink builds an idempotent sink; key must be stable and unique per
// logical event (e.g. a record id header).
func NewDedupSink(key func(Event) string, deliver func(Event) error) *DedupSink {
	return &DedupSink{key: key, deliver: deliver, seen: make(map[string]struct{})}
}

// Deliver sends each not-yet-delivered event, stopping at the first error.
// Events delivered before the failure are remembered, so the retry resumes
// exactly at the failure point.
func (s *DedupSink) Deliver(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range events {
		k := s.key(e)
		if _, ok := s.seen[k]; ok {
			s.skipped++
			continue
		}
		if err := s.deliver(e); err != nil {
			return err
		}
		s.seen[k] = struct{}{}
	}
	return nil
}

// Skipped returns how many duplicate deliveries were suppressed.
func (s *DedupSink) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}
