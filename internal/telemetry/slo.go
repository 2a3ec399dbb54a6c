package telemetry

import (
	"sync"
	"time"
)

// SLO tracks one service-level objective over a pair of cumulative samplers:
// total() counts units of work, good() the subset that met the objective
// (delivered, or under the latency threshold). Each Report() takes a fresh
// sample (keeping at most the first and the last per clock instant, so
// polling on a stopped clock stays bounded), prunes samples older than the
// rolling window, and computes the error rate and burn rate over the
// windowed deltas — the standard "burn rate = observed error rate / budgeted
// error rate" form, where a burn rate of 1.0 consumes the error budget
// exactly as fast as the objective allows and anything above it is an
// incident in the making.
type SLO struct {
	name      string
	objective float64
	window    time.Duration
	good      func() float64
	total     func() float64
	now       func() time.Time

	mu      sync.Mutex
	samples []sloSample
}

type sloSample struct {
	t           time.Time
	good, total float64
}

// SLOReport is one objective's current burn math.
type SLOReport struct {
	Name          string  `json:"name"`
	Objective     float64 `json:"objective"`
	WindowSeconds float64 `json:"windowSeconds"`
	// Good/Total are the windowed deltas the rates below are computed from.
	Good      float64 `json:"good"`
	Total     float64 `json:"total"`
	ErrorRate float64 `json:"errorRate"`
	// BurnRate is ErrorRate divided by the budgeted error rate
	// (1 - Objective); 1.0 means the budget drains exactly on schedule.
	BurnRate float64 `json:"burnRate"`
}

// NewSLO builds one objective. objective is the target good/total fraction
// (e.g. 0.999); window bounds the rolling deltas (<=0 means one hour); nil
// now means time.Now.
func NewSLO(name string, objective float64, window time.Duration, good, total func() float64, now func() time.Time) *SLO {
	if window <= 0 {
		window = time.Hour
	}
	if now == nil {
		now = time.Now
	}
	return &SLO{name: name, objective: objective, window: window, good: good, total: total, now: now}
}

// Report samples the counters and returns the windowed burn math.
func (s *SLO) Report() SLOReport {
	ts := s.now()
	good, total := s.good(), s.total()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only the oldest and the newest retained sample are ever read, and
	// pruning promotes the newest sample of an instant to baseline, so the
	// ones between an instant's first and last can be overwritten.
	cur := sloSample{t: ts, good: good, total: total}
	if n := len(s.samples); n >= 2 && s.samples[n-1].t.Equal(ts) && s.samples[n-2].t.Equal(ts) {
		s.samples[n-1] = cur
	} else {
		s.samples = append(s.samples, cur)
	}
	s.pruneLocked(ts)

	first, last := s.samples[0], s.samples[len(s.samples)-1]
	rep := SLOReport{
		Name: s.name, Objective: s.objective, WindowSeconds: s.window.Seconds(),
		Good: last.good - first.good, Total: last.total - first.total,
	}
	if rep.Total > 0 {
		bad := rep.Total - rep.Good
		if bad < 0 {
			bad = 0
		}
		rep.ErrorRate = bad / rep.Total
	}
	if budget := 1 - s.objective; budget > 0 {
		rep.BurnRate = rep.ErrorRate / budget
	}
	return rep
}

// pruneLocked drops samples that fell out of the window, keeping the newest
// sample at or before the window edge as the delta baseline.
func (s *SLO) pruneLocked(now time.Time) {
	cut := now.Add(-s.window)
	keep := 0
	for keep < len(s.samples)-1 && !s.samples[keep+1].t.After(cut) {
		keep++
	}
	s.samples = s.samples[keep:]
}

// SLOMonitor is an ordered collection of SLOs sharing one clock — what
// GET /api/slo serves.
type SLOMonitor struct {
	now func() time.Time

	mu   sync.Mutex
	slos []*SLO
}

// NewSLOMonitor builds an empty monitor (nil now means time.Now).
func NewSLOMonitor(now func() time.Time) *SLOMonitor {
	if now == nil {
		now = time.Now
	}
	return &SLOMonitor{now: now}
}

// Add registers an objective and returns it.
func (m *SLOMonitor) Add(name string, objective float64, window time.Duration, good, total func() float64) *SLO {
	s := NewSLO(name, objective, window, good, total, m.now)
	m.mu.Lock()
	m.slos = append(m.slos, s)
	m.mu.Unlock()
	return s
}

// Reports samples every objective in registration order.
func (m *SLOMonitor) Reports() []SLOReport {
	m.mu.Lock()
	slos := make([]*SLO, len(m.slos))
	copy(slos, m.slos)
	m.mu.Unlock()
	out := make([]SLOReport, len(slos))
	for i, s := range slos {
		out[i] = s.Report()
	}
	return out
}
