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
// string trace ids, integer span ids. Every span is also handed once, when
// it finishes, to the observer SetObserver registers, whether or not its
// trace is still in the ring.
//
// Spans and traces are carved from chunks the tracer owns rather than
// allocated one by one, and a trace keeps its first few span pointers in an
// inline array, so the common few-span trace allocates nothing of its own:
// one chunk allocation of each kind serves many traces.
type Tracer struct {
	now func() time.Time
	cap int

	mu        sync.Mutex
	traces    map[string]*trace
	order     []*trace // retained traces, oldest first: the eviction ring
	slab      []Span   // the unused tail of the chunk the next span is carved from
	traceSlab []trace  // the unused tail of the chunk the next trace is carved from
	observer  func(root string, s, parent *Span, durationMs float64)
}

// spanChunk is how many spans one slab allocation holds, and traceChunk how
// many traces. A chunk stays live while any of its spans or traces is
// referenced, so both are kept near the ring's working set: 128 traces of
// about 5 spans span ten span chunks and four trace chunks.
const (
	spanChunk  = 64
	traceChunk = 32
)

// inlineSpans is how many span pointers a trace holds before its span list
// moves to the heap; a frame's trace has 5.
const inlineSpans = 6

type trace struct {
	id     string
	name   string
	spans  []*Span
	inline [inlineSpans]*Span
}

// Span is one timed operation inside a trace. Start it via Tracer.Start or
// Span.Child; close it with End. Spans are not safe for concurrent
// mutation — each belongs to one goroutine, like a stack frame.
type Span struct {
	tracer *Tracer
	trace  *trace
	// parent is the parent span until this one ends (nil for a root), kept
	// after the trace leaves the ring. End drops it: ended spans pointing at
	// their parents would chain every slab chunk to the one before it.
	parent *Span

	ID     int
	Parent int // -1 for the root span
	Name   string
	Tier   string // tier/stage tag (edge/fog/server/cloud, ...), fixed when the span opens
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
	return t.startLocked(id, name, "")
}

// startLocked opens a trace under id with a root span beginning now.
func (t *Tracer) startLocked(id, name, tier string) *Span {
	if len(t.traceSlab) == 0 {
		t.traceSlab = make([]trace, traceChunk)
	}
	tr := &t.traceSlab[0]
	t.traceSlab = t.traceSlab[1:]
	*tr = trace{id: id, name: name}
	tr.spans = tr.inline[:0]
	t.insertLocked(tr)
	return t.spanLocked(tr, nil, name, tier)
}

// spanLocked carves the next span of tr from the slab, begins it now and
// appends it under parent (nil for a root). The span's tier is fixed here,
// before any other goroutine can see the span, and never written again.
func (t *Tracer) spanLocked(tr *trace, parent *Span, name, tier string) *Span {
	if len(t.slab) == 0 {
		t.slab = make([]Span, spanChunk)
	}
	s := &t.slab[0]
	t.slab = t.slab[1:]
	*s = Span{tracer: t, trace: tr, parent: parent, ID: len(tr.spans), Parent: -1, Name: name, Tier: tier, Begin: t.now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	tr.spans = append(tr.spans, s)
	return s
}

// insertLocked stores tr under its id and maintains the eviction ring. A
// re-Start of a retained id moves it to the back of the ring — it is the
// freshest trace again — so `order` and `traces` can never disagree about
// which id the next eviction removes. Eviction runs after insertion; the
// just-inserted id sits at the back, so it is only evictable when it is the
// sole entry, which the cap (>= 1) forbids.
//
// A trace that leaves the ring drops its span pointers: a span a caller
// still holds then pins its own chunk (and, while it is open, its
// parent's), not every chunk allocated since.
func (t *Tracer) insertLocked(tr *trace) {
	if old, ok := t.traces[tr.id]; ok {
		for i, o := range t.order {
			if o == old {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
		old.drop()
	}
	t.order = append(t.order, tr)
	t.traces[tr.id] = tr
	for len(t.order) > t.cap {
		old := t.order[0]
		delete(t.traces, old.id)
		old.drop()
		t.order = t.order[1:]
	}
}

// drop clears a trace's span pointers as it leaves the ring, the inline
// ones too once its list has moved to the heap: the trace's chunk outlives
// it, and must not pin the span chunks it pointed at.
func (tr *trace) drop() {
	clear(tr.spans)
	clear(tr.inline[:])
}

// Child opens a sub-span under s on the given tier ("" for none).
func (s *Span) Child(name, tier string) *Span {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.tracer.spanLocked(s.trace, s, name, tier)
}

// SetObserver registers fn to receive every span once, when it finishes by
// End, replacing any earlier observer (nil detaches). fn
// gets the span's trace root name, the span, its parent (nil for a root)
// and the span's duration in milliseconds. It runs on the goroutine that
// finished the span, outside the tracer lock, so it may take its own locks.
// It may read the ID, Parent, Name and Tier of s and parent, which are fixed
// when a span opens, and must not keep either.
func (t *Tracer) SetObserver(fn func(root string, s, parent *Span, durationMs float64)) {
	t.mu.Lock()
	t.observer = fn
	t.mu.Unlock()
}

// End closes the span. Ending twice keeps the first finish time.
func (s *Span) End() {
	s.tracer.mu.Lock()
	s.finishAndUnlock()
}

// finishAndUnlock closes the span now unless it is closed already,
// releases the tracer lock the caller holds, and hands a span it closed to
// the observer.
func (s *Span) finishAndUnlock() {
	t := s.tracer
	if !s.Finish.IsZero() {
		t.mu.Unlock()
		return
	}
	finish := t.now()
	s.Finish = finish
	obs, parent := t.observer, s.parent
	s.parent = nil
	t.mu.Unlock()
	if obs != nil {
		obs(s.trace.name, s, parent, float64(finish.Sub(s.Begin))/float64(time.Millisecond))
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
	for i, tr := range t.order {
		out[i] = tr.id
	}
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
