package retry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPolicyRetriesUntilSuccess(t *testing.T) {
	clk := NewManualClock(time.Time{})
	p := NewPolicy(Config{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Multiplier: 2}, 1).WithClock(clk)
	calls := 0
	err := p.Do(func() error {
		calls++
		if calls < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d", calls)
	}
	st := p.Stats()
	if st.Attempts != 4 || st.Retries != 3 || st.Failures != 3 || st.Exhausted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// 10 + 20 + 40 ms of simulated backoff, no jitter configured.
	if got := clk.Slept(); got != 70*time.Millisecond {
		t.Fatalf("slept = %v", got)
	}
}

func TestPolicyExhaustionReturnsLastError(t *testing.T) {
	p := NewPolicy(Config{MaxAttempts: 3, BaseDelay: time.Millisecond}, 2)
	boom := errors.New("boom")
	calls := 0
	err := p.Do(func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if st := p.Stats(); st.Exhausted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPermanentErrorFailsFast(t *testing.T) {
	p := NewPolicy(Config{MaxAttempts: 10, BaseDelay: time.Millisecond}, 3)
	calls := 0
	bad := errors.New("malformed record")
	err := p.Do(func() error { calls++; return Permanent(bad) })
	if calls != 1 {
		t.Fatalf("permanent error retried: calls = %d", calls)
	}
	if !errors.Is(err, bad) || !IsPermanent(err) {
		t.Fatalf("err = %v", err)
	}
	// Wrapping elsewhere preserves the marker.
	if !IsPermanent(fmt.Errorf("outer: %w", Permanent(bad))) {
		t.Fatal("wrapped permanent not detected")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestBackoffJitterIsSeededAndBounded(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		p := NewPolicy(Config{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, JitterFrac: 0.5}, seed)
		var out []time.Duration
		for i := 1; i <= 5; i++ {
			out = append(out, p.backoff(i))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Each delay stays within ±50% of the un-jittered exponential value.
	base := []time.Duration{100, 200, 400, 800, 1000} // ms, capped at MaxDelay
	for i, d := range a {
		lo := time.Duration(float64(base[i]) * 0.5 * float64(time.Millisecond))
		hi := time.Duration(float64(base[i]) * 1.5 * float64(time.Millisecond))
		if d < lo || d > hi {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestBreakerTransitions walks closed → open → half-open → closed entirely
// on the simulated clock (satellite requirement).
func TestBreakerTransitions(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: 50 * time.Millisecond, HalfOpenProbes: 2}, clk)

	if b.State() != Closed {
		t.Fatalf("initial state = %v", b.State())
	}
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		b.OnFailure()
	}
	if b.State() != Open {
		t.Fatalf("state after threshold = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt before the window elapsed")
	}

	clk.Advance(50 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker did not half-open after the open window")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v", b.State())
	}
	// A probe failure relapses straight to open.
	b.OnFailure()
	if b.State() != Open {
		t.Fatalf("state after probe failure = %v", b.State())
	}

	clk.Advance(50 * time.Millisecond)
	if !b.Allow() { // probe 1
		t.Fatal("no probe admitted")
	}
	if !b.Allow() { // probe 2
		t.Fatal("second probe rejected")
	}
	if b.Allow() { // probes capped
		t.Fatal("breaker admitted more probes than configured")
	}
	b.OnSuccess()
	if b.State() != HalfOpen {
		t.Fatalf("closed before all probes succeeded: %v", b.State())
	}
	b.OnSuccess()
	if b.State() != Closed {
		t.Fatalf("state after successful probes = %v", b.State())
	}
	st := b.Stats()
	if st.Opened != 2 || st.HalfOpened != 2 || st.Closed != 1 || st.ShortCircuits < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPolicyWithOpenBreakerStillTerminates verifies Do backs off (advancing
// the shared clock so the breaker can half-open) instead of hot-looping or
// hanging when short-circuited.
func TestPolicyWithOpenBreakerStillTerminates(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: 10 * time.Millisecond, HalfOpenProbes: 1}, clk)
	p := NewPolicy(Config{MaxAttempts: 6, BaseDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond}, 6).
		WithClock(clk).WithBreaker(b)

	calls := 0
	err := p.Do(func() error { calls++; return errors.New("down") })
	if err == nil {
		t.Fatal("expected failure")
	}
	// The first failure trips the breaker; backoff (20ms) exceeds the open
	// window (10ms), so every later attempt is a half-open probe rather
	// than a short circuit — the policy keeps making real attempts.
	if calls != 6 {
		t.Fatalf("calls = %d", calls)
	}

	// Recovery: next Do succeeds and closes the breaker.
	if err := p.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v", b.State())
	}
}

func TestDLQAccounting(t *testing.T) {
	q := NewDLQ[string]()
	q.Add("a", errors.New("x"), 3)
	q.Add("b", nil, 1)
	if q.Len() != 2 || q.Total() != 2 {
		t.Fatalf("len=%d total=%d", q.Len(), q.Total())
	}
	ls := q.Letters()
	if len(ls) != 2 || ls[0].Item != "a" || ls[0].Cause != "x" || ls[0].Attempts != 3 {
		t.Fatalf("letters = %+v", ls)
	}
	drained := q.Drain()
	if len(drained) != 2 || q.Len() != 0 || q.Total() != 2 {
		t.Fatalf("after drain: %d/%d/%d", len(drained), q.Len(), q.Total())
	}
}

// TestConcurrentPolicyAndBreaker exercises the mutexes under the race
// detector.
func TestConcurrentPolicyAndBreaker(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(BreakerConfig{FailureThreshold: 4, OpenTimeout: time.Millisecond, HalfOpenProbes: 1}, clk)
	p := NewPolicy(DefaultConfig(), 8).WithClock(clk).WithBreaker(b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 0
				_ = p.Do(func() error {
					n++
					if (g+i+n)%3 == 0 {
						return errors.New("flap")
					}
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.Calls != 400 {
		t.Fatalf("calls = %d", st.Calls)
	}
}
