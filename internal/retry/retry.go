// Package retry is the unified resilience layer for the ingestion and
// storage tiers: an exponential-backoff retry policy with seeded jitter, an
// injectable clock (so tests and simulations never sleep on the wall clock),
// a circuit breaker with half-open probing, and a generic dead-letter queue
// for records that exhaust their retries. The flume agents, the stream produce/poll paths, and the NoSQL
// drains all share these primitives instead of growing ad-hoc retry loops.
package retry

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Clock abstracts time so retry backoff can run on a simulated timeline.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// ManualClock is a simulated clock: Sleep advances virtual time instantly,
// which keeps chaos sweeps and tests deterministic and fast. It is safe for
// concurrent use.
type ManualClock struct {
	mu    sync.Mutex
	t     time.Time
	slept time.Duration
}

// NewManualClock starts a simulated clock at the given instant.
func NewManualClock(start time.Time) *ManualClock { return &ManualClock{t: start} }

// Now returns the current virtual time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Sleep advances virtual time by d without blocking.
func (c *ManualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	c.slept += d
}

// Advance moves virtual time forward (e.g. to trip breaker open windows).
func (c *ManualClock) Advance(d time.Duration) { c.Sleep(d) }

// Slept returns the total virtual time spent in Sleep.
func (c *ManualClock) Slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}

// The backoff before retry k is baseDelay·multiplier^(k-1), capped at
// maxDelay and spread by ±jitterFrac with the policy's seeded rng, which
// de-synchronizes retry herds deterministically.
const (
	baseDelay  = 5 * time.Millisecond
	maxDelay   = 500 * time.Millisecond
	multiplier = 2
	jitterFrac = 0.2
)

// Config tunes a retry policy.
type Config struct {
	// MaxAttempts bounds total tries including the first (<=0 means 1).
	MaxAttempts int
}

// DefaultConfig returns the shared ingestion-tier policy shape.
func DefaultConfig() Config { return Config{MaxAttempts: 6} }

// Stats counts policy activity across all Do calls.
type Stats struct {
	Calls         int // Do invocations
	Attempts      int // operation executions
	Retries       int // backoff sleeps taken
	Failures      int // failed operation executions
	ShortCircuits int // attempts skipped because the breaker was open
	Exhausted     int // Do calls that returned an error after all attempts
}

// Policy executes operations with bounded, jittered retries. It is
// safe for concurrent use and deterministic for a given seed and clock.
type Policy struct {
	cfg     Config
	clock   Clock
	breaker *Breaker

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// NewPolicy builds a policy with a seeded jitter source. The default clock
// is a ManualClock anchored at the zero time — no wall-clock sleeps; install
// a shared one with WithClock.
func NewPolicy(cfg Config, seed int64) *Policy {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	return &Policy{
		cfg:   cfg,
		clock: NewManualClock(time.Time{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// WithClock installs a clock and returns the policy (builder style).
func (p *Policy) WithClock(c Clock) *Policy {
	if c != nil {
		p.clock = c
	}
	return p
}

// WithBreaker attaches a circuit breaker consulted before every attempt.
func (p *Policy) WithBreaker(b *Breaker) *Policy { p.breaker = b; return p }

// Stats returns a snapshot of counters.
func (p *Policy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// backoff draws the jittered delay before retry number `retry` (1-based).
func (p *Policy) backoff(retry int) time.Duration {
	d := float64(baseDelay)
	for i := 1; i < retry; i++ {
		d *= multiplier
		if d >= float64(maxDelay) {
			break
		}
	}
	d = min(d, float64(maxDelay))
	p.mu.Lock()
	j := 1 + jitterFrac*(2*p.rng.Float64()-1)
	p.mu.Unlock()
	return time.Duration(d * j)
}

func (p *Policy) count(f func(s *Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// CallStats counts what one Do/DoStats call did. Unlike the policy-wide
// Stats snapshot, these are attributable to a single operation even when
// other goroutines run the same policy concurrently — callers that need
// per-record retry accounting must use these rather than diffing Stats
// around the call.
type CallStats struct {
	Retries int // backoff sleeps taken in this call
}

// Do runs op with bounded retries. When the breaker is open the attempt is
// skipped but still backs off (advancing the clock so the breaker can reach
// half-open). The returned error is the last
// failure, nil on success.
func (p *Policy) Do(op func() error) error {
	_, err := p.DoStats(op)
	return err
}

// DoStats is Do plus a per-call stats record (see CallStats).
func (p *Policy) DoStats(op func() error) (CallStats, error) {
	p.count(func(s *Stats) { s.Calls++ })
	var cs CallStats
	var lastErr error
	for attempt := 1; ; attempt++ {
		if p.breaker != nil && !p.breaker.Allow() {
			p.count(func(s *Stats) { s.ShortCircuits++ })
			if lastErr == nil {
				lastErr = ErrBreakerOpen
			} else {
				lastErr = fmt.Errorf("%w (last: %v)", ErrBreakerOpen, lastErr)
			}
		} else {
			err := op()
			p.count(func(s *Stats) { s.Attempts++ })
			if err == nil {
				if p.breaker != nil {
					p.breaker.OnSuccess()
				}
				return cs, nil
			}
			lastErr = err
			p.count(func(s *Stats) { s.Failures++ })
			if p.breaker != nil {
				p.breaker.OnFailure()
			}
		}
		if attempt >= p.cfg.MaxAttempts {
			p.count(func(s *Stats) { s.Exhausted++ })
			return cs, lastErr
		}
		d := p.backoff(attempt)
		cs.Retries++
		p.count(func(s *Stats) { s.Retries++ })
		p.clock.Sleep(d)
	}
}

// DeadLetter is one quarantined item with its failure context.
type DeadLetter[T any] struct {
	Item     T
	Cause    string
	Attempts int
}

// DLQ is a bounded-purpose dead-letter queue: records that exhaust their
// retries park here (with cause and attempt count) instead of aborting the
// pipeline, and can be redriven later. Safe for concurrent use.
type DLQ[T any] struct {
	mu      sync.Mutex
	letters []DeadLetter[T]
}

// NewDLQ creates an empty queue.
func NewDLQ[T any]() *DLQ[T] { return &DLQ[T]{} }

// Add parks one item.
func (q *DLQ[T]) Add(item T, cause error, attempts int) {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	q.mu.Lock()
	q.letters = append(q.letters, DeadLetter[T]{Item: item, Cause: msg, Attempts: attempts})
	q.mu.Unlock()
}

// Len returns the number of parked items.
func (q *DLQ[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.letters)
}

// Letters returns a copy of the parked items.
func (q *DLQ[T]) Letters() []DeadLetter[T] {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DeadLetter[T], len(q.letters))
	copy(out, q.letters)
	return out
}

// Drain removes and returns all parked items (redrive entry point).
func (q *DLQ[T]) Drain() []DeadLetter[T] {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.letters
	q.letters = nil
	return out
}
