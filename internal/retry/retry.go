// Package retry is the unified resilience layer for the ingestion and
// storage tiers: an exponential-backoff retry policy with seeded jitter, an
// injectable clock (so tests and simulations never sleep on the wall clock),
// retry budgets that prevent retry storms, a circuit breaker with half-open
// probing, and a generic dead-letter queue for records that exhaust their
// retries. The flume agents, the stream produce/poll paths, and the NoSQL
// drains all share these primitives instead of growing ad-hoc retry loops.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Sentinel errors.
var (
	// ErrBudgetExhausted reports that the shared retry budget ran dry.
	ErrBudgetExhausted = errors.New("retry: budget exhausted")
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

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Policy.Do fails fast instead of retrying —
// malformed records, unknown topics, and other deterministic failures.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) is marked permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Config tunes a retry policy.
type Config struct {
	// MaxAttempts bounds total tries including the first (<=0 means 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier grows the delay each retry (default 2).
	Multiplier float64
	// JitterFrac spreads each delay by ±JitterFrac (0..1) using the
	// policy's seeded rng, de-synchronizing retry herds deterministically.
	JitterFrac float64
}

// DefaultConfig returns the shared ingestion-tier policy shape.
func DefaultConfig() Config {
	return Config{
		MaxAttempts: 6,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

// Stats counts policy activity across all Do calls.
type Stats struct {
	Calls          int // Do invocations
	Attempts       int // operation executions
	Retries        int // backoff sleeps taken
	Failures       int // failed operation executions
	ShortCircuits  int // attempts skipped because the breaker was open
	Exhausted      int // Do calls that returned an error after all attempts
	BudgetStops    int // Do calls stopped early by the retry budget
	SleptSimulated time.Duration
}

// Policy executes operations with bounded, jittered, budgeted retries. It is
// safe for concurrent use and deterministic for a given seed and clock.
type Policy struct {
	cfg     Config
	clock   Clock
	breaker *Breaker
	budget  *Budget

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
	if cfg.Multiplier < 1 {
		cfg.Multiplier = 2
	}
	if cfg.BaseDelay < 0 {
		cfg.BaseDelay = 0
	}
	if cfg.MaxDelay < cfg.BaseDelay {
		cfg.MaxDelay = cfg.BaseDelay
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

// WithBudget attaches a shared retry budget spent on every backoff.
func (p *Policy) WithBudget(b *Budget) *Policy { p.budget = b; return p }

// Config returns the policy configuration.
func (p *Policy) Config() Config { return p.cfg }

// Clock returns the policy's clock (shared with breakers and simulations).
func (p *Policy) Clock() Clock { return p.clock }

// Breaker returns the attached breaker (nil when none).
func (p *Policy) Breaker() *Breaker { return p.breaker }

// Stats returns a snapshot of counters.
func (p *Policy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// backoff draws the jittered delay before retry number `retry` (1-based).
func (p *Policy) backoff(retry int) time.Duration {
	d := float64(p.cfg.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.cfg.Multiplier
		if d >= float64(p.cfg.MaxDelay) {
			break
		}
	}
	if d > float64(p.cfg.MaxDelay) {
		d = float64(p.cfg.MaxDelay)
	}
	if p.cfg.JitterFrac > 0 {
		p.mu.Lock()
		j := 1 + p.cfg.JitterFrac*(2*p.rng.Float64()-1)
		p.mu.Unlock()
		d *= j
	}
	return time.Duration(d)
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
	Attempts      int // operation executions in this call
	Retries       int // backoff sleeps taken in this call
	ShortCircuits int // attempts skipped because the breaker was open
	Slept         time.Duration
}

// Do runs op with bounded retries. Permanent errors fail fast. When the
// breaker is open the attempt is skipped but still backs off (advancing the
// clock so the breaker can reach half-open); when the budget is dry the call
// stops early. The returned error is the last failure, nil on success.
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
			cs.ShortCircuits++
			p.count(func(s *Stats) { s.ShortCircuits++ })
			if lastErr == nil {
				lastErr = ErrBreakerOpen
			} else {
				lastErr = fmt.Errorf("%w (last: %v)", ErrBreakerOpen, lastErr)
			}
		} else {
			err := op()
			cs.Attempts++
			p.count(func(s *Stats) { s.Attempts++ })
			if err == nil {
				if p.breaker != nil {
					p.breaker.OnSuccess()
				}
				if p.budget != nil {
					p.budget.OnSuccess()
				}
				return cs, nil
			}
			lastErr = err
			p.count(func(s *Stats) { s.Failures++ })
			if p.breaker != nil {
				p.breaker.OnFailure()
			}
			if IsPermanent(err) {
				p.count(func(s *Stats) { s.Exhausted++ })
				return cs, err
			}
		}
		if attempt >= p.cfg.MaxAttempts {
			p.count(func(s *Stats) { s.Exhausted++ })
			return cs, lastErr
		}
		if p.budget != nil && !p.budget.Spend() {
			p.count(func(s *Stats) { s.BudgetStops++; s.Exhausted++ })
			return cs, fmt.Errorf("%w: %w", ErrBudgetExhausted, lastErr)
		}
		d := p.backoff(attempt)
		cs.Retries++
		cs.Slept += d
		p.count(func(s *Stats) { s.Retries++; s.SleptSimulated += d })
		p.clock.Sleep(d)
	}
}

// Budget is a token bucket shared across operations: each retry spends one
// token, each success refills a fraction, so a sustained outage cannot turn
// into an unbounded retry storm. Safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	refill float64
}

// NewBudget creates a full bucket holding maxTokens; every success refills
// refillPerSuccess tokens (capped at maxTokens).
func NewBudget(maxTokens, refillPerSuccess float64) *Budget {
	if maxTokens <= 0 {
		maxTokens = 1
	}
	return &Budget{tokens: maxTokens, max: maxTokens, refill: refillPerSuccess}
}

// Spend takes one retry token, reporting whether the retry may proceed.
func (b *Budget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// OnSuccess refills the bucket.
func (b *Budget) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.refill
	if b.tokens > b.max {
		b.tokens = b.max
	}
}

// Tokens returns the current balance.
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
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
	total   int
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
	q.total++
	q.mu.Unlock()
}

// Len returns the number of parked items.
func (q *DLQ[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.letters)
}

// Total returns the number of items ever parked (including redriven ones).
func (q *DLQ[T]) Total() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
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
