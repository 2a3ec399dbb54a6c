package telemetry

import (
	"encoding/json"
	"errors"
	"math"
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
	encode := root.Child("encode")                // t=10
	encode.End()                                  // t=20 → encode 10ms
	produce := root.Child("produce")              // t=30
	produce.SetTier("fog")
	produce.End() // t=40 → produce 10ms
	root.End()    // t=50 → root 50ms

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
	a := root.Child("stage-a")
	a.End()
	b := root.Child("stage-b")
	c := b.Child("stage-b.inner")
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
