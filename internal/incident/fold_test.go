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

// oracleUpdateGraph is the graph fold that spans folding as they end
// replaced, kept as the oracle: walk the retained trace ids, copy each trace
// with Trace, and fold its spans past seen[id]. Run over a ring that never
// evicts or replaces a trace, after every span has ended, it sees each span
// once, as the tracer's observer does. tick is the tick the fold belongs to.
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

// stageSpans sums the stage nodes' span counts: one per span folded.
func stageSpans(gv GraphView) int64 {
	var n int64
	for _, nd := range gv.Nodes {
		if nd.Kind == KindStage {
			n += nd.Spans
		}
	}
	return n
}

// manualClock is a clock a history moves by hand, so both tracers of a
// mirror read the same instants.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time { return c.t }

// tick is the unit the histories move the clock by: 15 625 ns is 1/64 ms,
// so every duration is exact in binary and edge sums do not depend on the
// order spans fold in.
const tick = 15625 * time.Nanosecond

// mirror drives one span history into two tracers on one clock: small, a
// ring whose spans fold into the engine under test as they end, and big, a
// ring that never evicts, which the oracle reads. Each trace small starts
// or re-roots gets a fresh id in big, so big never replaces a trace either,
// and the oracle sees every span small hands its observer.
type mirror struct {
	small, big *telemetry.Tracer
	ids        map[string]string // small's trace id → big's id for the same trace
	traces     int               // traces started in small
	renewed    int               // ids small started or re-rooted again
	spans      []pair            // spans made since the last endAll
	ended      int64             // spans ended in small
}

// pair is one span of the history: its copy in small and in big.
type pair struct{ s, b *telemetry.Span }

func newMirror(clk func() time.Time, capacity int) *mirror {
	return &mirror{
		small: telemetry.NewTracer(clk, capacity),
		big:   telemetry.NewTracer(clk, 1<<20),
		ids:   make(map[string]string),
	}
}

// renew gives small's id a fresh id in big: small is starting a new trace
// under it.
func (m *mirror) renew(id string) string {
	if _, ok := m.ids[id]; ok {
		m.renewed++
	}
	m.traces++
	m.ids[id] = fmt.Sprintf("%s#%d", id, m.traces)
	return m.ids[id]
}

// remote maps one of small's contexts to big. An id small does not retain
// re-roots in small, so it gets a fresh id, which re-roots in big too.
func (m *mirror) remote(ctx telemetry.TraceContext) telemetry.TraceContext {
	if _, err := m.small.Trace(ctx.TraceID); err != nil {
		m.renew(ctx.TraceID)
	}
	return telemetry.TraceContext{TraceID: m.ids[ctx.TraceID], SpanID: ctx.SpanID}
}

func (m *mirror) keep(s, b *telemetry.Span) pair {
	p := pair{s, b}
	m.spans = append(m.spans, p)
	return p
}

func (m *mirror) start(id, root string) pair {
	return m.keep(m.small.Start(id, root), m.big.Start(m.renew(id), root))
}

func (m *mirror) child(p pair, name, tier string) pair {
	return m.keep(p.s.Child(name, tier), p.b.Child(name, tier))
}

func (m *mirror) startRemote(ctx telemetry.TraceContext, name, tier string) pair {
	bctx := m.remote(ctx)
	return m.keep(m.small.StartRemote(ctx, name, tier), m.big.StartRemote(bctx, name, tier))
}

func (m *mirror) spanAt(ctx telemetry.TraceContext, name, tier string, begin, end time.Time) {
	bctx := m.remote(ctx)
	m.small.SpanAt(ctx, name, tier, begin, end)
	m.big.SpanAt(bctx, name, tier, begin, end)
	m.ended++
}

// end closes p in both tracers, by End or by EndAt(at); closing a span
// again changes nothing.
func (m *mirror) end(p pair, at time.Time) {
	if p.s.Finish.IsZero() {
		m.ended++
	}
	if at.IsZero() {
		p.s.End()
		p.b.End()
	} else {
		p.s.EndAt(at)
		p.b.EndAt(at)
	}
}

// endAll closes every span made since the last call, in rng's order.
func (m *mirror) endAll(rng *rand.Rand) {
	rng.Shuffle(len(m.spans), func(i, j int) { m.spans[i], m.spans[j] = m.spans[j], m.spans[i] })
	for _, p := range m.spans {
		m.end(p, time.Time{})
	}
	m.spans = m.spans[:0]
}

// tierOf is each span name's tier: a stage keeps one tier, as the pipeline's
// do, so which of its spans folds first does not decide its node's tier.
var tierOf = map[string]string{"collect": "edge", "stream": "fog", "store": "cloud", "archive": "cloud"}

// TestReStartedTraceIsFolded: an id whose trace was folded, evicted and then
// started again has the new trace's spans folded from its first one.
func TestReStartedTraceIsFolded(t *testing.T) {
	tr := telemetry.NewTracer(testClock(), 2)
	e := observedEngine(tr, telemetry.NewEventLog(testClock(), 64), &fakeAlerts{})
	x := tr.Start("x", "ingest-a")
	x.Child("collect", "").End()
	x.Child("stream", "").End()
	x.End()
	e.Tick()
	tr.Start("y", "ingest-b").End()
	tr.Start("z", "ingest-b").End() // evicts x
	e.Tick()
	c := tr.Start("x", "ingest-c")
	c.Child("store", "").End()
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

// TestSmallRingFoldsEverySpan runs 50 traces of at least 5 spans through a
// ring of 4 between two ticks, with one id started again while its first
// trace is retained, spans that end after their trace was evicted or
// replaced, and a remote span that re-roots an evicted id. The graph must
// equal the oracle's fold over a ring that kept all of them, and count
// every span ended: a fold that reads the ring sees the last 4 traces only.
func TestSmallRingFoldsEverySpan(t *testing.T) {
	clk := &manualClock{t: time.Unix(1_700_000_000, 0)}
	m := newMirror(clk.now, 4)
	ev := telemetry.NewEventLog(clk.now, 64)
	e := NewEngine(ev, &fakeAlerts{}, testConfig())
	m.small.SetObserver(e.FoldSpan)
	oe := NewEngine(ev, &fakeAlerts{}, testConfig())
	e.Tick()
	oe.Tick()

	var late []pair
	var evictedCtx telemetry.TraceContext
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("frame-%d", i)
		if i == 29 {
			id = "frame-28" // still in the ring: the new trace replaces it
		}
		root := m.start(id, "ingest-frame")
		for j, stage := range []string{"collect", "stream", "store", "archive"} {
			clk.t = clk.t.Add(time.Duration(1+i+j) * tick)
			sp := m.child(root, stage, tierOf[stage])
			if stage == "archive" && (i == 0 || i == 28) {
				late = append(late, sp, m.child(sp, "hdfs", "cloud"))
				continue
			}
			m.end(sp, time.Time{})
		}
		if i == 1 {
			evictedCtx = root.s.Context()
		}
		m.end(m.startRemote(root.s.Context(), "decode", "cloud"), time.Time{})
		m.end(root, clk.t.Add(tick))
	}
	if _, err := m.small.Trace("frame-0"); err == nil {
		t.Fatal("frame-0 still in a ring of 4")
	}
	for i := len(late) - 1; i >= 0; i-- {
		m.end(late[i], time.Time{})
	}
	m.startRemote(evictedCtx, "archive", "cloud")
	m.endAll(rand.New(rand.NewSource(1)))

	oracleUpdateGraph(oe, m.big, map[string]int{}, oe.tick+1)
	oe.Tick()
	e.Tick()
	got, want := e.Graph(), oe.Graph()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("graph\n%+v\noracle\n%+v", got, want)
	}
	if n := stageSpans(got); n != m.ended || n < 50*5 {
		t.Fatalf("graph counts %d spans, %d ended", n, m.ended)
	}
	if m.renewed < 2 {
		t.Fatalf("history re-started %d ids, want the replaced and the re-rooted one", m.renewed)
	}
}

// TestGraphMatchesOracleOnRandomHistories drives seeded tracer histories —
// rings of 2 to 5 traces, and some that never evict, under 8 ids that are
// started again and again; children of evicted and replaced traces;
// StartRemote and SpanAt with retained, unknown and evicted ids and
// out-of-range span ids; spans closed twice, by End and EndAt — into an
// engine folding spans as they end, and the same history into an unbounded
// ring the oracle folds. Before each tick every span ends; after it the
// graph views must be equal and count every span ended.
func TestGraphMatchesOracleOnRandomHistories(t *testing.T) {
	roots := []string{"ingest-tweets", "ingest-frame", "ingest-waze"}
	stages := []string{"collect", "stream", "store", "archive", "decode"}
	var renewed, ticks int
	var ended int64
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &manualClock{t: time.Unix(1_700_000_000, 0)}
		capacity := 2 + rng.Intn(4)
		if seed%4 == 0 {
			capacity = 1 << 20
		}
		m := newMirror(clk.now, capacity)
		ev := telemetry.NewEventLog(clk.now, 64)
		e := NewEngine(ev, &fakeAlerts{}, testConfig())
		m.small.SetObserver(e.FoldSpan)
		oe := NewEngine(ev, &fakeAlerts{}, testConfig())
		seen := map[string]int{}
		var recent []pair
		id := func() string { return fmt.Sprintf("t%d", rng.Intn(8)) }
		stage := func() string { return stages[rng.Intn(len(stages))] }
		pick := func() pair { return recent[rng.Intn(len(recent))] }
		keep := func(p pair) {
			if recent = append(recent, p); len(recent) > 32 {
				recent = recent[1:]
			}
		}
		remote := func() telemetry.TraceContext {
			if len(recent) > 0 && rng.Intn(2) == 0 {
				return pick().s.Context()
			}
			return telemetry.TraceContext{TraceID: id(), SpanID: rng.Intn(8) - 1}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op == 0 || len(recent) == 0:
				root := roots[rng.Intn(len(roots))]
				keep(m.start(id(), root))
			case op <= 2:
				name := stage()
				keep(m.child(pick(), name, tierOf[name]))
			case op == 3:
				at := time.Time{}
				if rng.Intn(2) == 0 {
					at = clk.t
				}
				m.end(pick(), at)
			case op == 4:
				name := stage()
				keep(m.startRemote(remote(), name, tierOf[name]))
			case op == 5:
				name := stage()
				begin := clk.t.Add(-time.Duration(rng.Intn(5)) * time.Millisecond)
				m.spanAt(remote(), name, tierOf[name], begin, begin.Add(time.Duration(rng.Intn(7)-2)*time.Millisecond))
			case op <= 7:
				clk.t = clk.t.Add(time.Duration(rng.Intn(200)) * tick)
			default:
				m.endAll(rng)
				oracleUpdateGraph(oe, m.big, seen, oe.tick+1)
				oe.Tick()
				e.Tick()
				ticks++
				got, want := e.Graph(), oe.Graph()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: graph\n%+v\noracle graph\n%+v", seed, step, got, want)
				}
				if n := stageSpans(got); n != m.ended {
					t.Fatalf("seed %d step %d: graph counts %d spans, %d ended", seed, step, n, m.ended)
				}
			}
		}
		renewed += m.renewed
		ended += m.ended
	}
	t.Logf("%d ticks, %d ids started again, %d spans ended", ticks, renewed, ended)
	if renewed < 1000 || ended < 5000 {
		t.Fatalf("history too tame: %d ids started again, %d spans ended", renewed, ended)
	}
}

// TestFoldWhileTicking ends spans on four goroutines, each on its own
// traces, through a ring smaller than their traces, while a fifth ticks the
// engine and reads its graph. Under -race it checks that spans fold outside
// the tracer lock safely, and that every stage node, then and afterwards,
// carries the tier its spans were opened with; afterwards the stage nodes
// count every span ended.
func TestFoldWhileTicking(t *testing.T) {
	const workers, traces, perTrace = 4, 60, 6
	tr := telemetry.NewTracer(nil, 8)
	e := observedEngine(tr, telemetry.NewEventLog(nil, 64), &fakeAlerts{})
	wantTier := map[string]string{
		"ingest-tweets": "", "ingest-tweets/collect": "edge", "ingest-tweets/stream": "fog",
		"ingest-tweets/store": "cloud", "ingest-tweets/archive": "cloud", "ingest-tweets/decode": "server",
		// a remote span re-roots a trace the ring of 8 has evicted
		"archive": "cloud", "archive/decode": "server", "decode": "server",
	}
	checkTiers := func(g GraphView) error {
		for _, n := range g.Nodes {
			if want, ok := wantTier[n.Name]; n.Kind == KindStage && (!ok || n.Tier != want) {
				return fmt.Errorf("stage node %q has tier %q, its spans were opened with %q", n.Name, n.Tier, want)
			}
		}
		return nil
	}
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
				if err := checkTiers(e.Graph()); err != nil {
					t.Error(err)
					return
				}
				e.GraphSize()
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
					root.Child(stage, tierOf[stage]).End()
				}
				tr.StartRemote(root.Context(), "archive", tierOf["archive"]).End()
				tr.SpanAt(root.Context(), "decode", "server", root.Begin, root.Begin)
				root.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-ticked
	e.Tick()
	g := e.Graph()
	if err := checkTiers(g); err != nil {
		t.Fatal(err)
	}
	if n := stageSpans(g); n != workers*traces*perTrace {
		t.Fatalf("graph counts %d spans, %d ended", n, workers*traces*perTrace)
	}
}

// BenchmarkFrameSpans times one frame-shaped trace — a root and four
// tier-tagged children, started and ended — through a 128-trace ring, bare
// and with every span handed to the engine's FoldSpan as it ends. The
// difference is the fold's cost per frame; a frame's trace has five spans.
func BenchmarkFrameSpans(b *testing.B) {
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = fmt.Sprintf("frame-%d", i)
	}
	for _, fold := range []bool{false, true} {
		b.Run(fmt.Sprintf("fold=%v", fold), func(b *testing.B) {
			tr := telemetry.NewTracer(nil, 128)
			if fold {
				tr.SetObserver(NewEngine(telemetry.NewEventLog(nil, 64), &fakeAlerts{}, testConfig()).FoldSpan)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := tr.Start(ids[i%len(ids)], "ingest-frame")
				for _, stage := range []string{"collect", "stream", "store", "archive"} {
					root.Child(stage, tierOf[stage]).End()
				}
				root.End()
			}
		})
	}
}
