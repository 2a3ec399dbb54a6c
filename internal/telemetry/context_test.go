package telemetry

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestInjectExtractRoundTrip(t *testing.T) {
	ctx := TraceContext{TraceID: "t-1", SpanID: 3}
	h := ctx.Inject(map[string]string{"key": "cam-7"})
	if h[HeaderTraceID] != "t-1" || h[HeaderSpanID] != "3" || h["key"] != "cam-7" {
		t.Fatalf("injected headers = %v", h)
	}
	got, ok := Extract(h)
	if !ok || got != ctx {
		t.Fatalf("extracted = %+v, ok = %v", got, ok)
	}

	// nil map: Inject allocates.
	if h := (TraceContext{TraceID: "t-2", SpanID: 0}).Inject(nil); h[HeaderTraceID] != "t-2" {
		t.Fatalf("inject into nil = %v", h)
	}

	// Invalid contexts leave headers untouched and don't extract.
	if h := (TraceContext{}).Inject(nil); h != nil {
		t.Fatalf("invalid inject allocated %v", h)
	}
	if _, ok := Extract(map[string]string{"unrelated": "x"}); ok {
		t.Fatal("extract from headers without trace id")
	}
	if _, ok := Extract(nil); ok {
		t.Fatal("extract from nil headers")
	}

	// Partial propagation: missing or mangled span id falls back to the root.
	for _, h := range []map[string]string{
		{HeaderTraceID: "t-3"},
		{HeaderTraceID: "t-3", HeaderSpanID: "junk"},
		{HeaderTraceID: "t-3", HeaderSpanID: "-4"},
	} {
		got, ok := Extract(h)
		if !ok || got.SpanID != 0 || got.TraceID != "t-3" {
			t.Fatalf("partial extract of %v = %+v, ok = %v", h, got, ok)
		}
	}
}

func TestStartRemoteParentsUnderPropagatedSpan(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	tr := NewTracer(clk.now, 8)
	root := tr.Start("hop", "producer")
	gate := root.Child("gate", "")
	gate.End()

	// The consumer continues the trace as a child of the span whose context
	// crossed the wire.
	remote := tr.StartRemote(gate.Context(), "consumer", "")
	remote.End()
	root.End()

	tv, err := tr.Trace("hop")
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Spans) != 3 {
		t.Fatalf("spans = %+v", tv.Spans)
	}
	if got := tv.Spans[2]; got.Name != "consumer" || got.Parent != gate.ID {
		t.Fatalf("remote span = %+v, want parent %d", got, gate.ID)
	}
}

func TestStartRemoteReRootsUnknownTrace(t *testing.T) {
	tr := NewTracer((&stepClock{t: time.Unix(0, 0), step: time.Millisecond}).now, 8)
	// Context from an evicted trace (or another process): no orphan, a fresh
	// local root keeps the id resolvable.
	s := tr.StartRemote(TraceContext{TraceID: "foreign", SpanID: 5}, "consumer", "")
	if s.ID != 0 || s.Parent != -1 {
		t.Fatalf("re-rooted span = %+v", s)
	}
	s.End()
	tv, err := tr.Trace("foreign")
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Spans) != 1 || tv.Spans[0].Parent != -1 {
		t.Fatalf("re-rooted trace = %+v", tv.Spans)
	}
}

func TestStartRemoteBadSpanIDAttachesToRoot(t *testing.T) {
	tr := NewTracer((&stepClock{t: time.Unix(0, 0), step: time.Millisecond}).now, 8)
	root := tr.Start("t", "producer")
	s := tr.StartRemote(TraceContext{TraceID: "t", SpanID: 99}, "consumer", "")
	s.End()
	root.End()
	tv, err := tr.Trace("t")
	if err != nil {
		t.Fatal(err)
	}
	if tv.Spans[1].Parent != 0 {
		t.Fatalf("out-of-range span id parented to %d, want root", tv.Spans[1].Parent)
	}
}

// Regression: re-Starting a retained id while the ring is at capacity must
// move that id to the back of the eviction order, not enqueue a duplicate —
// a duplicate made the next eviction delete the freshly started trace while
// its stale id stayed in the order slice.
func TestReStartAtCapacityKeepsRingConsistent(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTracer(clk.now, 2)
	tr.Start("t1", "a").End()
	tr.Start("t2", "b").End()
	tr.Start("t1", "a2").End() // re-start at capacity

	ids := tr.IDs()
	if len(ids) != 2 || ids[0] != "t2" || ids[1] != "t1" {
		t.Fatalf("order after re-start = %v, want [t2 t1]", ids)
	}
	tv, err := tr.Trace("t1")
	if err != nil {
		t.Fatal(err)
	}
	if tv.Name != "a2" {
		t.Fatalf("re-started trace name = %q, want the fresh one", tv.Name)
	}

	// The next insertion evicts t2 (the actual oldest), never t1.
	tr.Start("t3", "c").End()
	ids = tr.IDs()
	if len(ids) != 2 || ids[0] != "t1" || ids[1] != "t3" {
		t.Fatalf("order after eviction = %v, want [t1 t3]", ids)
	}
	if _, err := tr.Trace("t2"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("t2 should be evicted, err = %v", err)
	}
}

// Hammers every tracer entry point from many goroutines; run with -race it
// proves exports never observe spans mid-mutation, and that every span —
// exported by a peer while its owner is still opening spans, or handed to
// the observer with its parent — carries the tier it was opened with.
func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer(nil, 16)
	tierOf := map[string]string{"work": "", "stage": "fog", "remote": "server", "replay": "cloud"}
	checkTiers := func(tv *TraceView) error {
		for _, s := range tv.Spans {
			if want, ok := tierOf[s.Name]; !ok || s.Tier != want {
				return fmt.Errorf("trace %s span %q has tier %q, opened with %q", tv.ID, s.Name, s.Tier, want)
			}
		}
		return nil
	}
	tr.SetObserver(func(root string, s, parent *Span, durationMs float64) {
		if parent != nil && parent.Tier != tierOf[parent.Name] {
			t.Errorf("span %q handed off under %q with tier %q", s.Name, parent.Name, parent.Tier)
		}
	})
	const workers = 8
	traceID := func(w int) string { return string(rune('a'+w)) + "-trace" }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := traceID(w)
				root := tr.Start(id, "work")
				child := root.Child("stage", "fog")
				// The peer's trace is being built on another goroutine.
				tv, err := tr.Trace(traceID((w + 1) % workers))
				if err == nil {
					err = checkTiers(tv)
				} else if errors.Is(err, ErrNoTrace) {
					err = nil
				}
				if err != nil {
					t.Error(err)
					return
				}
				remote := tr.StartRemote(child.Context(), "remote", "server")
				remote.End()
				child.End()
				tr.StartRemote(root.Context(), "replay", "cloud").End()
				root.End()
				if tv, err = tr.Trace(id); err == nil {
					err = checkTiers(tv)
				}
				if err != nil {
					t.Errorf("trace %s: %v", id, err)
					return
				}
				tr.IDs()
			}
		}(w)
	}
	wg.Wait()
	for _, id := range tr.IDs() {
		tv, err := tr.Trace(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTiers(tv); err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for i, s := range tv.Spans {
			if s.ID != i || seen[s.ID] {
				t.Fatalf("span ids not dense/unique: %+v", tv.Spans)
			}
			seen[s.ID] = true
			if s.Parent >= s.ID || (s.Parent < 0 && s.ID != 0) {
				t.Fatalf("span %d has impossible parent %d", s.ID, s.Parent)
			}
		}
		var sum float64
		for _, st := range tv.Breakdown() {
			sum += st.ExclusiveMs
		}
		if math.IsNaN(sum) {
			t.Fatalf("breakdown produced NaN for %s", id)
		}
	}
}
