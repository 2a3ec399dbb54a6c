package telemetry

import (
	"math"
	"testing"
	"time"
)

// manualClock advances only when told, unlike stepClock.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time { return c.t }

func TestSLOBurnMath(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	var good, total float64
	s := NewSLO("delivery", 0.9, 10*time.Minute,
		func() float64 { return good },
		func() float64 { return total }, clk.now)

	// First sample: no window yet, nothing to burn.
	rep := s.Report()
	if rep.Total != 0 || rep.ErrorRate != 0 || rep.BurnRate != 0 {
		t.Fatalf("empty report = %+v", rep)
	}

	// 100 units, 90 good → error rate 0.1 = exactly the budget → burn 1.0.
	clk.t = clk.t.Add(time.Minute)
	good, total = 90, 100
	rep = s.Report()
	if rep.Good != 90 || rep.Total != 100 {
		t.Fatalf("windowed deltas = %+v", rep)
	}
	if math.Abs(rep.ErrorRate-0.1) > 1e-12 || math.Abs(rep.BurnRate-1.0) > 1e-12 {
		t.Fatalf("rates = %+v", rep)
	}

	// 100 more units, all bad → cumulative windowed error 110/200.
	clk.t = clk.t.Add(time.Minute)
	total = 200
	rep = s.Report()
	if math.Abs(rep.ErrorRate-0.55) > 1e-12 || math.Abs(rep.BurnRate-5.5) > 1e-12 {
		t.Fatalf("rates after bad batch = %+v", rep)
	}
}

func TestSLOWindowPruning(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	var good, total float64
	s := NewSLO("latency", 0.99, 10*time.Minute,
		func() float64 { return good },
		func() float64 { return total }, clk.now)

	good, total = 0, 100 // 100 bad units at t=0
	s.Report()
	clk.t = clk.t.Add(time.Minute)
	good, total = 100, 200 // 100 good units at t=1min
	s.Report()

	// Far past the window: the t=1min sample becomes the delta baseline, so
	// the old failures no longer burn budget.
	clk.t = clk.t.Add(30 * time.Minute)
	good, total = 150, 250 // 50 more, all good
	rep := s.Report()
	if rep.Good != 50 || rep.Total != 50 {
		t.Fatalf("pruned deltas = %+v", rep)
	}
	if rep.ErrorRate != 0 || rep.BurnRate != 0 {
		t.Fatalf("stale failures still burning: %+v", rep)
	}
}

func TestSLOGoodExceedingTotalClamps(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	var good, total float64
	s := NewSLO("odd", 0.5, time.Hour,
		func() float64 { return good },
		func() float64 { return total }, clk.now)
	s.Report()
	clk.t = clk.t.Add(time.Minute)
	good, total = 10, 5 // mis-sampled counters must not go negative
	rep := s.Report()
	if rep.ErrorRate != 0 || rep.BurnRate != 0 {
		t.Fatalf("negative bad leaked: %+v", rep)
	}
}

func TestSLOMonitorOrderAndClock(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	m := NewSLOMonitor(clk.now)
	var aTotal float64
	m.Add("a", 0.999, time.Hour, func() float64 { return aTotal }, func() float64 { return aTotal })
	m.Add("b", 0.95, 0, func() float64 { return 0 }, func() float64 { return 0 })

	reps := m.Reports()
	if len(reps) != 2 || reps[0].Name != "a" || reps[1].Name != "b" {
		t.Fatalf("reports = %+v", reps)
	}
	// window <= 0 defaults to one hour.
	if reps[1].WindowSeconds != 3600 {
		t.Fatalf("default window = %g", reps[1].WindowSeconds)
	}

	clk.t = clk.t.Add(time.Minute)
	aTotal = 42 // all good → zero burn
	reps = m.Reports()
	if reps[0].Total != 42 || reps[0].BurnRate != 0 {
		t.Fatalf("objective a = %+v", reps[0])
	}
}

// TestSLOSamplesBoundedPerInstant: polling on a stopped clock (every
// GET /api/health between two monitor ticks) must not grow the sample ring,
// and must keep reporting the delta from the instant's first sample to now.
func TestSLOSamplesBoundedPerInstant(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	var good, total float64
	s := NewSLO("delivery", 0.9, time.Hour,
		func() float64 { return good },
		func() float64 { return total }, clk.now)

	s.Report()
	good, total = 90, 100
	second := s.Report()
	if second.Good != 90 || second.Total != 100 || math.Abs(second.BurnRate-1.0) > 1e-12 {
		t.Fatalf("second report = %+v", second)
	}
	for i := 2; i < 10000; i++ {
		if rep := s.Report(); rep != second {
			t.Fatalf("report %d = %+v, want %+v", i, rep, second)
		}
	}
	if n := len(s.samples); n > 2 {
		t.Fatalf("%d samples retained at one clock instant, want <= 2", n)
	}

	// The instant's last sample is the baseline once the window moves past it,
	// exactly as when every sample was kept.
	good, total = 100, 120
	s.Report()
	clk.t = clk.t.Add(2 * time.Hour)
	good, total = 130, 150
	if rep := s.Report(); rep.Good != 30 || rep.Total != 30 || rep.BurnRate != 0 {
		t.Fatalf("report past the window = %+v", rep)
	}
}
