package retry

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPolicyRetriesUntilSuccess(t *testing.T) {
	clk := NewManualClock(time.Time{})
	p := NewPolicy(Config{MaxAttempts: 5}, 1).WithClock(clk)
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
	// 5 + 10 + 20 ms of simulated backoff, each jittered by at most ±20 %.
	if got := clk.Slept(); got < 28*time.Millisecond || got > 42*time.Millisecond {
		t.Fatalf("slept = %v", got)
	}
}

func TestPolicyExhaustionReturnsLastError(t *testing.T) {
	p := NewPolicy(Config{MaxAttempts: 3}, 2)
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

func TestBackoffJitterIsSeededAndBounded(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		p := NewPolicy(DefaultConfig(), seed)
		var out []time.Duration
		for i := 1; i <= 9; i++ {
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
	// Each delay stays within ±20% of the un-jittered exponential value.
	base := []time.Duration{5, 10, 20, 40, 80, 160, 320, 500, 500} // ms, capped at maxDelay
	for i, d := range a {
		lo := time.Duration(float64(base[i]) * 0.8 * float64(time.Millisecond))
		hi := time.Duration(float64(base[i]) * 1.2 * float64(time.Millisecond))
		if d < lo || d > hi {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestNewBreakerUsesCoreValues pins the breaker's shape to the one core
// runs: it opens on the fifth consecutive failure, not the fourth, and
// half-opens exactly 40 ms later.
func TestNewBreakerUsesCoreValues(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(clk)
	for i := 0; i < 4; i++ {
		b.OnFailure()
	}
	if b.State() != Closed {
		t.Fatalf("state after 4 failures = %v, want closed", b.State())
	}
	b.OnFailure()
	if b.State() != Open {
		t.Fatalf("state after 5 failures = %v, want open", b.State())
	}
	clk.Advance(39 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker half-opened before 40 ms")
	}
	clk.Advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker still open at 40 ms")
	}
}

// TestBreakerTransitions walks closed → open → half-open → closed entirely
// on the simulated clock (satellite requirement).
func TestBreakerTransitions(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(clk)

	if b.State() != Closed {
		t.Fatalf("initial state = %v", b.State())
	}
	for i := 0; i < failureThreshold; i++ {
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

	clk.Advance(openTimeout)
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

	clk.Advance(openTimeout)
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
	if st.Opened != 2 || st.HalfOpened != 2 || st.Closed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPolicyWithOpenBreakerStillTerminates verifies Do backs off (advancing
// the shared clock so the breaker can half-open) instead of hot-looping or
// hanging when short-circuited.
func TestPolicyWithOpenBreakerStillTerminates(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(clk)
	p := NewPolicy(Config{MaxAttempts: 8}, 6).WithClock(clk).WithBreaker(b)

	calls := 0
	err := p.Do(func() error { calls++; return errors.New("down") })
	if err == nil {
		t.Fatal("expected failure")
	}
	// The fifth failure trips the breaker; every backoff from then on
	// (80 ms and up, less 20 % jitter) exceeds the 40 ms open window, so
	// every later attempt is a half-open probe rather than a short circuit —
	// the policy keeps making real attempts.
	if calls != 8 {
		t.Fatalf("calls = %d", calls)
	}

	// Recovery: the next Do backs off through the open window and its
	// probe succeeds; a second succeeding probe closes the breaker.
	for i := 0; i < halfOpenProbes; i++ {
		if err := p.Do(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if b.State() != Closed {
		t.Fatalf("state = %v", b.State())
	}
}

func TestDLQAccounting(t *testing.T) {
	q := NewDLQ[string]()
	q.Add("a", errors.New("x"), 3)
	q.Add("b", nil, 1)
	if q.Len() != 2 {
		t.Fatalf("len=%d", q.Len())
	}
	ls := q.Letters()
	if len(ls) != 2 || ls[0].Item != "a" || ls[0].Cause != "x" || ls[0].Attempts != 3 || ls[1].Cause != "" {
		t.Fatalf("letters = %+v", ls)
	}
	drained := q.Drain()
	if len(drained) != 2 || q.Len() != 0 || len(q.Drain()) != 0 {
		t.Fatalf("after drain: %d/%d", len(drained), q.Len())
	}
	q.Add("c", errors.New("again"), 2)
	if q.Len() != 1 {
		t.Fatalf("after re-add: len %d", q.Len())
	}
}

// TestConcurrentPolicyAndBreaker exercises the mutexes under the race
// detector.
func TestConcurrentPolicyAndBreaker(t *testing.T) {
	clk := NewManualClock(time.Time{})
	b := NewBreaker(clk)
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

func TestDoStatsReportsThisCallOnly(t *testing.T) {
	clk := NewManualClock(time.Time{})
	p := NewPolicy(Config{MaxAttempts: 4}, 1).WithClock(clk)
	fails := 2
	cs, err := p.DoStats(func() error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 10 ms of backoff, each jittered by at most ±20 %.
	if cs.Retries != 2 || clk.Slept() < 12*time.Millisecond || clk.Slept() > 18*time.Millisecond {
		t.Fatalf("first call stats = %+v, slept %v", cs, clk.Slept())
	}
	// A second call starts its record from zero; the policy totals add up.
	cs2, err := p.DoStats(func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cs2 != (CallStats{}) {
		t.Fatalf("second call stats = %+v", cs2)
	}
	if st := p.Stats(); st.Calls != 2 || st.Attempts != 4 || st.Retries != 2 {
		t.Fatalf("policy stats = %+v", st)
	}
}

func TestNewPolicyNormalizesConfig(t *testing.T) {
	if cfg := NewPolicy(Config{MaxAttempts: -3}, 1).cfg; cfg.MaxAttempts != 1 {
		t.Fatalf("normalized config = %+v", cfg)
	}
	// One attempt means no retry and no sleep.
	p := NewPolicy(Config{}, 1)
	calls := 0
	cs, err := p.DoStats(func() error { calls++; return errors.New("x") })
	if err == nil || calls != 1 || cs.Retries != 0 {
		t.Fatalf("zero config: calls %d, stats %+v, err %v", calls, cs, err)
	}
}

func TestManualClockIgnoresNonPositiveSleep(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewManualClock(start)
	clk.Sleep(0)
	clk.Sleep(-time.Second)
	if !clk.Now().Equal(start) || clk.Slept() != 0 {
		t.Fatalf("non-positive sleeps moved the clock: now %v slept %v", clk.Now(), clk.Slept())
	}
	clk.Advance(3 * time.Second)
	clk.Sleep(2 * time.Second)
	if !clk.Now().Equal(start.Add(5*time.Second)) || clk.Slept() != 5*time.Second {
		t.Fatalf("now %v slept %v", clk.Now(), clk.Slept())
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{Closed: "closed", Open: "open", HalfOpen: "half-open", BreakerState(9): "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
