package telemetry

import "strconv"

// Header keys carrying trace context across tier boundaries. They ride in
// flume event headers and stream record headers — the only metadata channels
// that survive the broker hop — so a consumer on the far side can continue
// the producer's trace instead of starting a disconnected one.
const (
	HeaderTraceID = "x-trace-id"
	HeaderSpanID  = "x-span-id"
)

// TraceContext identifies a position inside a trace — the trace id plus the
// span that should parent whatever happens on the far side of a boundary.
// It is what Inject writes into headers and Extract reads back.
type TraceContext struct {
	TraceID string
	SpanID  int
}

// Valid reports whether the context can parent remote spans.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID >= 0 }

// Inject writes the context into a header map, allocating one when h is nil,
// and returns the map. Invalid contexts leave h untouched.
func (tc TraceContext) Inject(h map[string]string) map[string]string {
	if !tc.Valid() {
		return h
	}
	if h == nil {
		h = make(map[string]string, 2)
	}
	h[HeaderTraceID] = tc.TraceID
	h[HeaderSpanID] = strconv.Itoa(tc.SpanID)
	return h
}

// Extract reads a trace context from a header map. A missing or negative
// span id with a present trace id falls back to span 0 (the root), so a
// partially propagated context still attaches rather than orphaning.
func Extract(h map[string]string) (TraceContext, bool) {
	id := h[HeaderTraceID]
	if id == "" {
		return TraceContext{}, false
	}
	sid := 0
	if raw := h[HeaderSpanID]; raw != "" {
		if n, err := strconv.Atoi(raw); err == nil && n >= 0 {
			sid = n
		}
	}
	return TraceContext{TraceID: id, SpanID: sid}, true
}

// Context returns the span's propagation context for Inject.
func (s *Span) Context() TraceContext {
	return TraceContext{TraceID: s.trace.id, SpanID: s.ID}
}

// StartRemote opens a span whose parent arrived over the wire: the consumer
// side of a broker hop or offload boundary calls it with the Extract-ed
// context, and the new span joins the producer's trace as a child of the
// propagated span id. If the trace was evicted from the ring (or belongs to
// another process), the id is re-rooted locally so the span is never an
// orphan; if the span id does not resolve, the span attaches under the root.
// The span, re-rooted or not, is on the given tier.
func (t *Tracer) StartRemote(ctx TraceContext, name, tier string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[ctx.TraceID]
	if !ok {
		return t.startLocked(ctx.TraceID, name, tier)
	}
	parent := ctx.SpanID
	if parent < 0 || parent >= len(tr.spans) {
		parent = 0
	}
	return t.spanLocked(tr, tr.spans[parent], name, tier)
}
