package telemetry

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNoTrace reports an unknown trace id.
var ErrNoTrace = errors.New("telemetry: trace not found")

// Tracer records parent/child spans on an injectable clock and retains the
// most recent traces in a bounded ring, exportable as JSON and as an
// aggregated critical-path report. It is deliberately minimal: one process,
// string trace ids, integer span ids.
type Tracer struct {
	now func() time.Time
	cap int

	mu     sync.Mutex
	traces map[string]*trace
	order  []string // insertion order for ring eviction
	spans  int64    // spans ever created, including evicted traces'
}

type trace struct {
	id    string
	name  string
	spans []*Span
}

// Span is one timed operation inside a trace. Start it via Tracer.Start or
// Span.Child; close it with End. Spans are not safe for concurrent
// mutation — each belongs to one goroutine, like a stack frame.
type Span struct {
	tracer *Tracer
	trace  *trace

	ID     int
	Parent int // -1 for the root span
	Name   string
	Tier   string // optional tier/stage tag (edge/fog/server/cloud, ...)
	Begin  time.Time
	Finish time.Time
}

// NewTracer builds a tracer retaining up to capacity traces (<=0 means 64)
// on the given clock (nil means time.Now).
func NewTracer(now func() time.Time, capacity int) *Tracer {
	if now == nil {
		now = time.Now
	}
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{now: now, cap: capacity, traces: make(map[string]*trace)}
}

// Start opens a new trace with a root span of the same name. An existing
// trace with the same id is replaced.
func (t *Tracer) Start(id, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &trace{id: id, name: name}
	t.insertLocked(id, tr)
	root := &Span{tracer: t, trace: tr, ID: 0, Parent: -1, Name: name, Begin: t.now()}
	tr.spans = append(tr.spans, root)
	t.spans++
	return root
}

// insertLocked stores tr under id and maintains the eviction ring. A
// re-Start of a retained id moves it to the back of the ring — it is the
// freshest trace again — so `order` and `traces` can never disagree about
// which id the next eviction removes. Eviction runs after insertion; the
// just-inserted id sits at the back, so it is only evictable when it is the
// sole entry, which the cap (>= 1) forbids.
func (t *Tracer) insertLocked(id string, tr *trace) {
	if _, ok := t.traces[id]; ok {
		for i, o := range t.order {
			if o == id {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	t.order = append(t.order, id)
	t.traces[id] = tr
	for len(t.order) > t.cap {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
}

// Child opens a sub-span under s.
func (s *Span) Child(name string) *Span {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	c := &Span{
		tracer: s.tracer, trace: s.trace,
		ID: len(s.trace.spans), Parent: s.ID, Name: name, Begin: s.tracer.now(),
	}
	s.trace.spans = append(s.trace.spans, c)
	s.tracer.spans++
	return c
}

// SpanCount returns how many spans were ever created, including spans of
// evicted traces. It is a cheap change detector: pollers (the incident
// engine's graph builder) re-scan the ring only when the count moved.
func (t *Tracer) SpanCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// SetTier tags the span with a tier/stage label. It takes the tracer lock so
// a concurrent Trace() export never reads the field mid-write.
func (s *Span) SetTier(tier string) {
	s.tracer.mu.Lock()
	s.Tier = tier
	s.tracer.mu.Unlock()
}

// End closes the span. Ending twice keeps the first finish time.
func (s *Span) End() {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.Finish.IsZero() {
		s.Finish = s.tracer.now()
	}
}

// SpanView is an exported span record.
type SpanView struct {
	ID          int     `json:"id"`
	Parent      int     `json:"parent"`
	Name        string  `json:"name"`
	Tier        string  `json:"tier,omitempty"`
	StartUnixNs int64   `json:"startUnixNs"`
	DurationMs  float64 `json:"durationMs"`
}

// TraceView is an exported trace: the root's wall time plus every span.
type TraceView struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	DurationMs float64    `json:"durationMs"`
	Spans      []SpanView `json:"spans"`
}

// IDs lists retained trace ids, oldest first.
func (t *Tracer) IDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Trace exports one trace by id. Unfinished spans are measured up to now.
func (t *Tracer) Trace(id string) (*TraceView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTrace, id)
	}
	now := t.now()
	tv := &TraceView{ID: tr.id, Name: tr.name, Spans: make([]SpanView, len(tr.spans))}
	for i, s := range tr.spans {
		end := s.Finish
		if end.IsZero() {
			end = now
		}
		tv.Spans[i] = SpanView{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Tier: s.Tier,
			StartUnixNs: s.Begin.UnixNano(),
			DurationMs:  float64(end.Sub(s.Begin)) / float64(time.Millisecond),
		}
	}
	if len(tv.Spans) > 0 {
		tv.DurationMs = tv.Spans[0].DurationMs
	}
	return tv, nil
}

// StageTime is one entry of a critical-path report: the exclusive time a
// stage (span name, optionally tier-tagged) contributed to the trace.
type StageTime struct {
	Stage       string  `json:"stage"`
	Tier        string  `json:"tier,omitempty"`
	ExclusiveMs float64 `json:"exclusiveMs"`
	Spans       int     `json:"spans"`
}

// Breakdown aggregates exclusive time per stage name: each span's duration
// minus the duration of its direct children, clamped at zero. The entries
// sum (within float rounding) to the root span's duration when children
// nest sequentially inside their parents — which is how the pipeline
// instruments its stages — making this the per-stage attribution of
// end-to-end latency.
func (tv *TraceView) Breakdown() []StageTime {
	childMs := make(map[int]float64, len(tv.Spans))
	for _, s := range tv.Spans {
		if s.Parent >= 0 {
			childMs[s.Parent] += s.DurationMs
		}
	}
	type key struct{ name, tier string }
	agg := make(map[key]*StageTime)
	var order []key
	for _, s := range tv.Spans {
		excl := s.DurationMs - childMs[s.ID]
		if excl < 0 {
			excl = 0
		}
		k := key{s.Name, s.Tier}
		st, ok := agg[k]
		if !ok {
			st = &StageTime{Stage: s.Name, Tier: s.Tier}
			agg[k] = st
			order = append(order, k)
		}
		st.ExclusiveMs += excl
		st.Spans++
	}
	out := make([]StageTime, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}
