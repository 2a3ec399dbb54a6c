package telemetry

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// stepClock advances a fixed amount every reading, making span durations
// deterministic.
type stepClock struct {
	t    time.Time
	step time.Duration
}

func (c *stepClock) now() time.Time {
	out := c.t
	c.t = c.t.Add(c.step)
	return out
}

func TestTracerSpansAndJSON(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	tr := NewTracer(clk.now, 8)

	root := tr.Start("ingest-1", "ingest-tweets") // t=0
	encode := root.Child("encode", "")            // t=10
	encode.End()                                  // t=20 → encode 10ms
	produce := root.Child("produce", "fog")       // t=30
	produce.End()                                 // t=40 → produce 10ms
	root.End()                                    // t=50 → root 50ms

	tv, err := tr.Trace("ingest-1")
	if err != nil {
		t.Fatal(err)
	}
	if tv.Name != "ingest-tweets" || len(tv.Spans) != 3 {
		t.Fatalf("trace = %+v", tv)
	}
	if tv.DurationMs != 50 {
		t.Fatalf("root duration = %g, want 50", tv.DurationMs)
	}
	if tv.Spans[1].Name != "encode" || tv.Spans[1].Parent != 0 || tv.Spans[1].DurationMs != 10 {
		t.Fatalf("encode span = %+v", tv.Spans[1])
	}
	if tv.Spans[2].Tier != "fog" {
		t.Fatalf("tier tag lost: %+v", tv.Spans[2])
	}

	raw, err := json.Marshal(tv)
	if err != nil {
		t.Fatal(err)
	}
	var round TraceView
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.ID != "ingest-1" || len(round.Spans) != 3 {
		t.Fatalf("JSON round-trip = %+v", round)
	}

	if _, err := tr.Trace("nope"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("unknown trace err = %v", err)
	}
}

func TestBreakdownSumsToRoot(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 5 * time.Millisecond}
	tr := NewTracer(clk.now, 8)
	root := tr.Start("t", "pipeline")
	a := root.Child("stage-a", "")
	a.End()
	b := root.Child("stage-b", "")
	c := b.Child("stage-b.inner", "")
	c.End()
	b.End()
	root.End()

	tv, err := tr.Trace("t")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range tv.Breakdown() {
		if st.ExclusiveMs < 0 {
			t.Fatalf("negative exclusive time: %+v", st)
		}
		sum += st.ExclusiveMs
	}
	if math.Abs(sum-tv.DurationMs) > 1e-9 {
		t.Fatalf("breakdown sums to %g, root duration %g", sum, tv.DurationMs)
	}
}

func TestTracerRingEviction(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTracer(clk.now, 2)
	tr.Start("t1", "a").End()
	tr.Start("t2", "b").End()
	tr.Start("t3", "c").End()
	ids := tr.IDs()
	if len(ids) != 2 || ids[0] != "t2" || ids[1] != "t3" {
		t.Fatalf("retained = %v, want [t2 t3]", ids)
	}
	if _, err := tr.Trace("t1"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("evicted trace still present: %v", err)
	}
}

func TestUnfinishedSpanMeasuredToNow(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	tr := NewTracer(clk.now, 4)
	tr.Start("live", "open") // t=0
	tv, err := tr.Trace("live")
	if err != nil {
		t.Fatal(err)
	}
	if tv.DurationMs <= 0 {
		t.Fatalf("open span duration = %g, want > 0", tv.DurationMs)
	}
}

// TestKeptSpanPinsOnlyItsChunk: a span a caller keeps must not keep every
// span allocated after it. Spans and traces share chunks, and a trace points
// at its spans, so a trace leaving the ring has to drop those pointers or
// one kept span pins a chain of chunks through the traces that straddle
// them. Traces of eight spans keep their first six pointers in the inline
// array after the list moved to the heap, which must be dropped too.
func TestKeptSpanPinsOnlyItsChunk(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, spans := range []int{5, 8} {
		tr := NewTracer(nil, 8)
		kept := tr.Start("kept", "ingest")
		kept.Child("stage", "")
		before := heap()
		// One span more where a trace would end on a chunk boundary, so
		// every boundary falls inside a trace and the chain cannot break.
		for i, made := 0, 2; i < 100000/spans; i++ {
			n := spans
			if (made+n)%spanChunk == 0 {
				n++
			}
			made += n
			root := tr.Start(strconv.Itoa(i), "ingest")
			for c := 1; c < n; c++ {
				root.Child("stage", "").End()
			}
			root.End()
		}
		grown := heap() - before
		runtime.KeepAlive(kept)
		// The 100 000-odd spans made are about 12 MB; the ring holds 40–70
		// of them.
		if grown > 1<<20 {
			t.Fatalf("%d-span traces: heap grew %d B after the kept span's trace left the ring", spans, grown)
		}
	}
}

// handOff is one span as the tracer handed it to its observer.
type handOff struct {
	root, name, parent, parentTier string
	durationMs                     float64
}

// observe registers an observer on tr that records every hand-off.
func observe(tr *Tracer) *[]handOff {
	var got []handOff
	tr.SetObserver(func(root string, s, parent *Span, durationMs float64) {
		h := handOff{root: root, name: s.Name, durationMs: durationMs}
		if parent != nil {
			h.parent, h.parentTier = parent.Name, parent.Tier
		}
		got = append(got, h)
	})
	return &got
}

func TestSpanClosedTwiceIsHandedOffOnce(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	tr := NewTracer(clk.now, 8)
	got := observe(tr)
	root := tr.Start("t", "ingest") // t=0
	sp := root.Child("store", "")   // t=10
	sp.End()                        // t=20
	sp.End()                        // a second close changes nothing
	want := []handOff{{root: "ingest", name: "store", parent: "ingest", durationMs: 10}}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("hand-offs = %+v, want %+v", *got, want)
	}
	if sp.Finish != time.Unix(0, 20*int64(time.Millisecond)) {
		t.Fatalf("finish = %v, want the first close's", sp.Finish)
	}
}

// TestSpansAreTimedByTheTracerClock: every way a span opens stamps its
// Begin with the tracer's clock, End stamps its Finish with it, and the
// trace view reports those instants. The step clock advances 10 ms per
// reading, so each span under test lasts exactly one step.
func TestSpansAreTimedByTheTracerClock(t *testing.T) {
	epoch := time.Unix(100, 0)
	cases := []struct {
		name    string
		open    func(tr *Tracer) *Span
		traceID string
		begin   time.Duration // the clock reading the span opens at
	}{
		{"Start", func(tr *Tracer) *Span { return tr.Start("t", "ingest") }, "t", 0},
		{"Child", func(tr *Tracer) *Span {
			return tr.Start("t", "ingest").Child("store", "cloud")
		}, "t", 10 * time.Millisecond},
		{"StartRemote", func(tr *Tracer) *Span {
			store := tr.Start("t", "ingest").Child("store", "cloud")
			return tr.StartRemote(store.Context(), "archive", "cloud")
		}, "t", 20 * time.Millisecond},
		{"StartRemote re-rooted", func(tr *Tracer) *Span {
			return tr.StartRemote(TraceContext{TraceID: "gone", SpanID: 3}, "archive", "cloud")
		}, "gone", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := &stepClock{t: epoch, step: 10 * time.Millisecond}
			tr := NewTracer(clk.now, 8)
			sp := c.open(tr)
			sp.End()
			if want := epoch.Add(c.begin); !sp.Begin.Equal(want) {
				t.Fatalf("begin = %v, want %v", sp.Begin, want)
			}
			if want := sp.Begin.Add(10 * time.Millisecond); !sp.Finish.Equal(want) {
				t.Fatalf("finish = %v, want %v", sp.Finish, want)
			}
			tv, err := tr.Trace(c.traceID)
			if err != nil {
				t.Fatal(err)
			}
			v := tv.Spans[sp.ID]
			if v.StartUnixNs != sp.Begin.UnixNano() || v.DurationMs != 10 {
				t.Fatalf("span view = %+v, want start %d and 10 ms", v, sp.Begin.UnixNano())
			}
		})
	}
}

// TestRemoteSpanIsHandedOffWithItsParentTier: a remote span under a
// retained trace reaches the observer under its propagated parent, with
// that parent's tier and a duration read off the tracer's clock.
func TestRemoteSpanIsHandedOffWithItsParentTier(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	tr := NewTracer(clk.now, 8)
	got := observe(tr)
	root := tr.Start("job-1", "frame")                             // t=0
	compute := root.Child("compute", "fog")                        // t=10
	reduce := tr.StartRemote(compute.Context(), "reduce", "cloud") // t=20
	reduce.End()                                                   // t=30
	compute.End()                                                  // t=40
	root.End()                                                     // t=50
	want := []handOff{
		{root: "frame", name: "reduce", parent: "compute", parentTier: "fog", durationMs: 10},
		{root: "frame", name: "compute", parent: "frame", durationMs: 30},
		{root: "frame", name: "frame", durationMs: 50},
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("hand-offs = %+v, want %+v", *got, want)
	}
}

// TestSpansOfEvictedTracesReachTheObserver: a span that ends after its trace
// left the ring still arrives under its own root and parent, and a remote
// span that re-roots an evicted id arrives as the root of the new trace.
func TestSpansOfEvictedTracesReachTheObserver(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	tr := NewTracer(clk.now, 2)
	got := observe(tr)
	a := tr.Start("a", "ingest-frame")
	store := a.Child("store", "cloud")
	inner := store.Child("hdfs", "")
	ctx := store.Context()
	tr.Start("b", "ingest-waze").End()
	tr.Start("c", "ingest-waze").End()
	if _, err := tr.Trace("a"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("trace a still retained: %v", err)
	}
	*got = nil
	inner.End()
	store.Child("late", "").End()
	remote := tr.StartRemote(ctx, "archive", "cloud")
	remote.Child("write", "").End()
	remote.End()
	store.End()
	a.End()
	want := []handOff{
		{root: "ingest-frame", name: "hdfs", parent: "store", parentTier: "cloud"},
		{root: "ingest-frame", name: "late", parent: "store", parentTier: "cloud"},
		{root: "archive", name: "write", parent: "archive", parentTier: "cloud"},
		{root: "archive", name: "archive"},
		{root: "ingest-frame", name: "store", parent: "ingest-frame"},
		{root: "ingest-frame", name: "ingest-frame"},
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("hand-offs =\n%+v\nwant\n%+v", *got, want)
	}
	if tv, err := tr.Trace("a"); err != nil || tv.Name != "archive" || len(tv.Spans) != 2 {
		t.Fatalf("re-rooted trace a = %+v, %v", tv, err)
	}
}

// TestWarmEndWithObserverZeroAlloc: ending a span and handing it to an
// observer allocates nothing; it runs for every span of every frame.
func TestWarmEndWithObserverZeroAlloc(t *testing.T) {
	tr := NewTracer(nil, 8)
	var n int
	tr.SetObserver(func(root string, s, parent *Span, durationMs float64) { n++ })
	root := tr.Start("t", "ingest")
	spans := make([]*Span, 1001) // AllocsPerRun's warm-up call plus its runs
	for i := range spans {
		spans[i] = root.Child("stage", "")
	}
	i := 0
	allocs := testing.AllocsPerRun(len(spans)-1, func() {
		spans[i].End()
		i++
	})
	if allocs != 0 || n != len(spans) {
		t.Fatalf("End with an observer: %.1f allocs/op over %d hand-offs, want 0 over %d", allocs, n, len(spans))
	}
}
