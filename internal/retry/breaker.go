package retry

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen reports a short-circuited attempt.
var ErrBreakerOpen = errors.New("retry: circuit breaker open")

// BreakerState enumerates the circuit breaker states.
type BreakerState int

const (
	// Closed passes every attempt through (healthy).
	Closed BreakerState = iota
	// Open short-circuits attempts until the open window elapses.
	Open
	// HalfOpen admits a limited number of probes to test recovery.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// The breaker trips open after failureThreshold consecutive failures, stays
// open for openTimeout on its clock, then admits halfOpenProbes probes; it
// closes once all of them succeed, and a probe failure re-opens it at once.
const (
	failureThreshold = 5
	openTimeout      = 40 * time.Millisecond
	halfOpenProbes   = 2
)

// BreakerStats counts breaker activity.
type BreakerStats struct {
	Opened     int // transitions into Open (including half-open relapses)
	HalfOpened int // transitions into HalfOpen
	Closed     int // transitions into Closed after recovery
}

// Breaker is a circuit breaker driven by an injectable clock (see
// failureThreshold for its shape). Safe for concurrent use.
type Breaker struct {
	clock Clock

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	probes      int // probes admitted while half-open
	probeOKs    int // probe successes while half-open
	openedAt    time.Time
	stats       BreakerStats
	onChange    func(from, to BreakerState)
}

// NewBreaker builds a breaker on the given clock (nil means a ManualClock).
func NewBreaker(clock Clock) *Breaker {
	if clock == nil {
		clock = NewManualClock(time.Time{})
	}
	return &Breaker{clock: clock}
}

// SetOnStateChange installs a callback observing every state transition —
// how the event log learns the breaker opened without polling. The callback
// runs with the breaker's lock held, so it must not call back into the
// breaker; logging is fine.
func (b *Breaker) SetOnStateChange(fn func(from, to BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onChange = fn
}

// transitionLocked moves to a new state and fires the observer; callers hold
// b.mu.
func (b *Breaker) transitionLocked(to BreakerState) {
	from := b.state
	b.state = to
	if b.onChange != nil && from != to {
		b.onChange(from, to)
	}
}

// Allow reports whether an attempt may proceed, transitioning Open →
// HalfOpen once the open window has elapsed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock.Now().Sub(b.openedAt) >= openTimeout {
			b.transitionLocked(HalfOpen)
			b.probes = 1
			b.probeOKs = 0
			b.stats.HalfOpened++
			return true
		}
		return false
	default: // HalfOpen
		if b.probes < halfOpenProbes {
			b.probes++
			return true
		}
		return false
	}
}

// OnSuccess records a successful attempt.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.consecFails = 0
	case HalfOpen:
		b.probeOKs++
		if b.probeOKs >= halfOpenProbes {
			b.transitionLocked(Closed)
			b.consecFails = 0
			b.stats.Closed++
		}
	}
}

// OnFailure records a failed attempt, tripping the breaker when the
// consecutive-failure threshold is reached (or instantly from half-open).
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.consecFails++
		if b.consecFails >= failureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	}
}

// trip moves to Open; callers hold b.mu.
func (b *Breaker) trip() {
	b.transitionLocked(Open)
	b.openedAt = b.clock.Now()
	b.consecFails = 0
	b.stats.Opened++
}

// State returns the current state (resolving elapsed open windows lazily on
// the next Allow, not here).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns a snapshot of counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
