package incident

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// oracleUpdateGraph is the graph fold the span cursor replaced, kept as the
// oracle: walk the retained trace ids, copy each trace with Trace, and fold
// its spans past seen[id]. The one change is the re-rooted-id fix: the
// history calls forget(seen, id) whenever id gets a new trace, which the old
// fold never learned. tick is the tick the fold belongs to.
func oracleUpdateGraph(e *Engine, tr *telemetry.Tracer, seen map[string]int, tick int64) {
	for _, id := range tr.IDs() {
		tv, err := tr.Trace(id)
		if err != nil {
			continue
		}
		from := seen[id]
		if from >= len(tv.Spans) {
			continue
		}
		seen[id] = len(tv.Spans)
		oracleIngestSpans(e, tv, from, tick)
	}
}

// forget is the fix applied to the oracle: a trace id that starts a new
// trace has had none of its spans folded.
func forget(seen map[string]int, id string) { delete(seen, id) }

// oracleIngestSpans is the per-span fold as it was, building root/name
// strings and looking every node, edge and binding up by name.
func oracleIngestSpans(e *Engine, tv *telemetry.TraceView, from int, tick int64) {
	root := tv.Name
	for i := from; i < len(tv.Spans); i++ {
		sp := &tv.Spans[i]
		name := root
		if sp.Parent >= 0 {
			name = root + "/" + sp.Name
		}
		ni := e.graph.nodeFor(name, KindStage, sp.Tier)
		e.graph.nodes[ni].spans++
		if sp.Parent >= 0 && sp.Parent < len(tv.Spans) {
			pname := root
			if p := &tv.Spans[sp.Parent]; p.Parent >= 0 {
				pname = root + "/" + p.Name
			}
			if pname != name {
				pi := e.graph.nodeFor(pname, KindStage, tv.Spans[sp.Parent].Tier)
				ei := e.graph.edgeFor(pi, ni, tick)
				ed := &e.graph.edges[ei]
				ed.traversals++
				ed.totalMs += sp.DurationMs
				if sp.DurationMs > ed.maxMs {
					ed.maxMs = sp.DurationMs
				}
			}
		}
		backends := e.cfg.Bindings[name]
		if backends == nil && sp.Parent >= 0 {
			backends = e.cfg.Bindings[sp.Name]
		}
		for _, b := range backends {
			bi := e.graph.nodeFor(b, KindBackend, "")
			e.graph.nodes[bi].spans++
			ei := e.graph.edgeFor(ni, bi, tick)
			e.graph.edges[ei].traversals++
		}
	}
}

// TestReStartedTraceIsFolded: an id whose trace was folded, evicted and then
// started again must have the new trace's spans folded from its first one.
// A per-id count of folded spans outlives the trace it counted and skipped
// them.
func TestReStartedTraceIsFolded(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 2)
	e := NewEngine(tr, telemetry.NewEventLog(testClock(), 64), &fakeAlerts{}, testConfig())
	x := tr.Start("x", "ingest-a")
	x.Child("collect").End()
	x.Child("stream").End()
	x.End()
	e.Tick()
	tr.Start("y", "ingest-b").End()
	tr.Start("z", "ingest-b").End() // evicts x
	e.Tick()
	c := tr.Start("x", "ingest-c")
	c.Child("store").End()
	c.End()
	e.Tick()
	found := map[string]int64{}
	for _, n := range e.Graph().Nodes {
		found[n.Name] = n.Spans
	}
	if found["ingest-c"] != 1 || found["ingest-c/store"] != 1 {
		t.Fatalf("re-started trace x not folded: nodes %v", found)
	}
}

// manualClock is a clock a history moves by hand, so every read inside one
// tick agrees and unfinished spans measure the same on both folds.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time { return c.t }

// TestGraphMatchesOracleOnRandomHistories drives seeded tracer histories —
// more traces than the ring holds, spans left open across ticks, children
// of evicted traces, StartRemote and SpanAt with retained, unknown and
// evicted ids and out-of-range span ids, re-started ids, late tier tags —
// into an engine folding through the span cursor and one folding through
// oracleUpdateGraph, and requires equal graph views after every tick.
func TestGraphMatchesOracleOnRandomHistories(t *testing.T) {
	roots := []string{"ingest-tweets", "ingest-frame", "ingest-waze"}
	stages := []string{"collect", "stream", "store", "archive", "decode"}
	tiers := []string{"", "edge", "fog", "cloud"}
	var restarts, timed, ticks int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &manualClock{t: time.Unix(1_700_000_000, 0)}
		tr := telemetry.NewTracer(clk.now, 2+rng.Intn(4))
		ev := telemetry.NewEventLog(clk.now, 64)
		e := NewEngine(tr, ev, &fakeAlerts{}, testConfig())
		oe := NewEngine(nil, ev, &fakeAlerts{}, testConfig())
		seen := map[string]int{}
		var spans []*telemetry.Span
		id := func() string { return fmt.Sprintf("t%d", rng.Intn(8)) }
		pick := func() *telemetry.Span { return spans[rng.Intn(len(spans))] }
		keep := func(s *telemetry.Span) {
			if spans = append(spans, s); len(spans) > 32 {
				spans = spans[1:]
			}
		}
		remote := func() telemetry.TraceContext {
			if len(spans) > 0 && rng.Intn(2) == 0 {
				return pick().Context()
			}
			return telemetry.TraceContext{TraceID: id(), SpanID: rng.Intn(8) - 1}
		}
		// reroots reports whether a remote context re-roots its id.
		reroots := func(ctx telemetry.TraceContext) bool {
			_, err := tr.Trace(ctx.TraceID)
			return err != nil
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op == 0 || len(spans) == 0:
				i := id()
				forget(seen, i)
				restarts++
				keep(tr.Start(i, roots[rng.Intn(len(roots))]))
			case op <= 2:
				keep(pick().Child(stages[rng.Intn(len(stages))]))
			case op == 3:
				pick().End()
			case op == 4:
				ctx := remote()
				if reroots(ctx) {
					forget(seen, ctx.TraceID)
					restarts++
				}
				keep(tr.StartRemote(ctx, stages[rng.Intn(len(stages))]))
			case op == 5:
				ctx := remote()
				if reroots(ctx) {
					forget(seen, ctx.TraceID)
					restarts++
				}
				begin := clk.t.Add(-time.Duration(rng.Intn(5)) * time.Millisecond)
				tr.SpanAt(ctx, stages[rng.Intn(len(stages))], tiers[rng.Intn(len(tiers))],
					begin, begin.Add(time.Duration(rng.Intn(7)-2)*time.Millisecond))
			case op == 6:
				pick().SetTier(tiers[rng.Intn(len(tiers))])
			case op == 7:
				clk.t = clk.t.Add(time.Duration(rng.Intn(3000)) * time.Microsecond)
			default:
				for _, id := range tr.IDs() {
					tv, _ := tr.Trace(id)
					for _, s := range tv.Spans[min(seen[id], len(tv.Spans)):] {
						if s.DurationMs > 0 {
							timed++
						}
					}
				}
				oracleUpdateGraph(oe, tr, seen, oe.tick+1)
				oe.Tick()
				e.Tick()
				ticks++
				if got, want := e.Graph(), oe.Graph(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: cursor graph\n%+v\noracle graph\n%+v", seed, step, got, want)
				}
			}
		}
	}
	t.Logf("%d ticks, %d re-started ids, %d spans folded with a duration", ticks, restarts, timed)
	if restarts < 1000 || timed < 1000 {
		t.Fatalf("history too tame: %d re-started ids, %d spans folded with a duration", restarts, timed)
	}
}

// TestCursorWalksWhileSpansGrow runs Child/End, StartRemote and SpanAt on
// several goroutines while the engine ticks, so under -race the cursor
// walks the ring as spans are appended and finished. The ring holds every
// trace, so afterwards each stage node must count exactly the spans made.
func TestCursorWalksWhileSpansGrow(t *testing.T) {
	const workers, traces = 4, 60
	tr := telemetry.NewTracer(nil, workers*traces)
	e := NewEngine(tr, telemetry.NewEventLog(nil, 64), &fakeAlerts{}, testConfig())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				e.Tick()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				root := tr.Start(fmt.Sprintf("w%d-%d", w, i), "ingest-tweets")
				for _, stage := range []string{"collect", "stream", "store"} {
					sp := root.Child(stage)
					sp.SetTier("fog")
					sp.End()
				}
				tr.StartRemote(root.Context(), "archive").End()
				tr.SpanAt(root.Context(), "decode", "cloud", root.Begin, root.Begin)
				root.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-ticked
	e.Tick()
	spans := map[string]int64{}
	for _, n := range e.Graph().Nodes {
		spans[n.Name] = n.Spans
	}
	for _, stage := range []string{"ingest-tweets", "ingest-tweets/collect", "ingest-tweets/stream",
		"ingest-tweets/store", "ingest-tweets/archive", "ingest-tweets/decode"} {
		if spans[stage] != workers*traces {
			t.Fatalf("%s folded %d spans, want %d: %v", stage, spans[stage], workers*traces, spans)
		}
	}
}
