package profile

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestRegionAccounting(t *testing.T) {
	p := New()
	r := p.Region("work")
	if got := p.Region("work"); got != r {
		t.Fatal("Region must be get-or-create")
	}
	for i := 0; i < 10; i++ {
		sp := r.Start()
		time.Sleep(time.Millisecond)
		sp.End()
	}
	if r.Calls() != 10 {
		t.Fatalf("calls = %d, want 10", r.Calls())
	}
	if r.WallSeconds() < 0.010 {
		t.Fatalf("wall = %v, want >= 10ms", r.WallSeconds())
	}
}

func TestNilSpansAreInert(t *testing.T) {
	var nilRegion *Region
	nilRegion.Start().End() // must not panic
	nilRegion.StartAt(Now()).EndAt(Now())
}

// Sibling spans opened via StartAt on a shared reading must attribute
// identical wall time.
func TestStartAtSharesClockReading(t *testing.T) {
	p := New()
	outer := p.Region("hop")
	inner := p.Region("hop/inner")
	so := outer.Start()
	si := inner.StartAt(so.StartTime())
	time.Sleep(time.Millisecond)
	at := Now()
	si.EndAt(at)
	so.EndAt(at)
	if outer.WallSeconds() != inner.WallSeconds() {
		t.Fatalf("shared-read spans disagree: outer %v, inner %v", outer.WallSeconds(), inner.WallSeconds())
	}
	if outer.WallSeconds() < 0.001 {
		t.Fatalf("wall = %v, want >= 1ms", outer.WallSeconds())
	}
}

// Self time must telescope: with nested regions, the parent's self is its
// cumulative minus the children's, and the selves over a subtree sum back to
// the root's cumulative.
func TestSelfTimeTelescopes(t *testing.T) {
	p := New()
	root := p.Region("ingest")
	child1 := p.Region("ingest/stream")
	child2 := p.Region("ingest/store")
	grand := p.Region("ingest/store/flush")

	spend := func(r *Region, d time.Duration) Span {
		sp := r.Start()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return sp
	}
	for i := 0; i < 3; i++ {
		spRoot := spend(root, time.Millisecond)
		spend(child1, 2*time.Millisecond).End()
		spC2 := spend(child2, time.Millisecond)
		spend(grand, time.Millisecond).End()
		spC2.End()
		spRoot.End()
	}

	stats := map[string]RegionStat{}
	for _, st := range p.Snapshot() {
		stats[st.Region] = st
	}
	sumSelf := stats["ingest"].SelfSeconds + stats["ingest/stream"].SelfSeconds +
		stats["ingest/store"].SelfSeconds + stats["ingest/store/flush"].SelfSeconds
	rootCum := stats["ingest"].CumSeconds
	if diff := sumSelf - rootCum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum(self) = %v, root cum = %v (diff %g)", sumSelf, rootCum, diff)
	}
	if stats["ingest/store"].SelfSeconds <= 0 {
		t.Fatalf("ingest/store self = %v, want > 0", stats["ingest/store"].SelfSeconds)
	}
}

func TestTickRanksHotRegions(t *testing.T) {
	p := New()
	hotR := p.Region("hot")
	coldR := p.Region("cold")
	spin := func(r *Region, d time.Duration) {
		sp := r.Start()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		sp.End()
	}
	spin(hotR, 20*time.Millisecond)
	spin(coldR, time.Millisecond)
	p.Tick()

	hot := p.HotRegions(0)
	if len(hot) != 2 || hot[0].Region != "hot" {
		t.Fatalf("hot ranking = %+v", hot)
	}
	if hot[0].Share <= hot[1].Share || hot[0].Share <= 0.5 {
		t.Fatalf("hot share = %v, cold share = %v", hot[0].Share, hot[1].Share)
	}
	if p.HotSelfSeconds() != hot[0].SelfSeconds || p.HotShare() != hot[0].Share {
		t.Fatal("scalar accessors disagree with ranking")
	}
	if got := p.WindowSelfSeconds("cold"); got != hot[1].SelfSeconds {
		t.Fatalf("WindowSelfSeconds(cold) = %v, want %v", got, hot[1].SelfSeconds)
	}

	// A second, idle window must rank everything at zero — Tick windows are
	// deltas, not cumulative totals.
	p.Tick()
	if p.HotSelfSeconds() != 0 {
		t.Fatalf("idle window hot self = %v, want 0", p.HotSelfSeconds())
	}
	if p.Ticks() != 2 {
		t.Fatalf("ticks = %d", p.Ticks())
	}
	// Limit capping.
	if got := p.HotRegions(1); len(got) != 1 {
		t.Fatalf("HotRegions(1) returned %d entries", len(got))
	}
}

func TestFlameSynthesizesAncestors(t *testing.T) {
	p := New()
	// Leaf-only instrumentation: broker/append/replicate exists, its parent
	// chain does not.
	leaf := p.Region("broker/append/replicate")
	other := p.Region("tsdb/scrape")
	sp := leaf.Start()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	other.Start().End()

	roots := p.Flame()
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	// Hottest-first ordering puts the synthesized broker root first.
	broker := roots[0]
	if broker.Path != "broker" || !broker.Synthetic {
		t.Fatalf("first root = %+v, want synthetic broker", broker)
	}
	if len(broker.Children) != 1 || broker.Children[0].Path != "broker/append" {
		t.Fatalf("broker children = %+v", broker.Children)
	}
	appendNode := broker.Children[0]
	if !appendNode.Synthetic || len(appendNode.Children) != 1 {
		t.Fatalf("append node = %+v", appendNode)
	}
	replicate := appendNode.Children[0]
	if replicate.Synthetic || replicate.Path != "broker/append/replicate" || replicate.Calls != 1 {
		t.Fatalf("replicate node = %+v", replicate)
	}
	// Synthetic cum propagates the leaf's cum up both levels.
	if broker.CumSeconds != replicate.CumSeconds || appendNode.CumSeconds != replicate.CumSeconds {
		t.Fatalf("synthetic cum broken: broker %v append %v leaf %v",
			broker.CumSeconds, appendNode.CumSeconds, replicate.CumSeconds)
	}
	if broker.SelfSeconds != 0 {
		t.Fatalf("synthetic self = %v, want 0", broker.SelfSeconds)
	}
}

func TestAllocSampling(t *testing.T) {
	p := New()
	p.sampleEvery = 1 // sample every call
	r := p.Region("alloc")
	var sink [][]byte
	for i := 0; i < 50; i++ {
		sp := r.Start()
		sink = append(sink, make([]byte, 4096))
		sp.End()
	}
	_ = sink
	// The runtime's heap counters can lag a handful of allocations behind a
	// concurrent GC cycle, so allow a couple of missed per-call deltas.
	if r.AllocBytes() < 46*4096 {
		t.Fatalf("alloc bytes = %d, want >= %d", r.AllocBytes(), 46*4096)
	}
	st := p.Snapshot()[0]
	if st.AllocObjects < 46 {
		t.Fatalf("alloc objects = %d, want >= 46", st.AllocObjects)
	}
	if st.BytesPerOp < 0.9*4096 || st.AllocsPerOp < 0.9 {
		t.Fatalf("per-op rates = %+v", st)
	}
}

// TestNewSamplesEvery256thCall: a region's allocation reads run on its
// 256th, 512th, ... span and on no other.
func TestNewSamplesEvery256thCall(t *testing.T) {
	r := New().Region("hot")
	sampled := 0
	for i := 1; i <= 600; i++ {
		sp := r.Start()
		if sp.sampled != (i%256 == 0) {
			t.Fatalf("call %d sampled = %v", i, sp.sampled)
		}
		if sp.sampled {
			sampled++
		}
		sp.End()
	}
	if sampled != 2 {
		t.Fatalf("sampled %d of 600 calls, want 2", sampled)
	}
}

func TestConcurrentSpansAndReads(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := p.Region("worker")
			for i := 0; i < 500; i++ {
				sp := r.Start()
				_ = p.Region("worker/sub").Start()
				sp.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.Tick()
			_ = p.Snapshot()
			_ = p.Flame()
			_ = p.HotRegions(3)
		}
	}()
	wg.Wait()
	if got := p.Region("worker").Calls(); got != 2000 {
		t.Fatalf("calls = %d, want 2000", got)
	}
}

// The hot path must stay allocation-free on unsampled calls, or the
// profiler would perturb the allocation budgets it polices.
func TestSpanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocs/op")
	}
	p := New()
	p.sampleEvery = math.MaxUint64 // no call in this test is sampled
	r := p.Region("hot")
	if allocs := testing.AllocsPerRun(1000, func() { r.Start().End() }); allocs != 0 {
		t.Fatalf("Start/End allocates %v per op, want 0", allocs)
	}
}

func TestCaptureCPU(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	ran := false
	if err := CaptureCPU(path, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn did not run")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile file: %v, %v", fi, err)
	}
}
