// Package profile is the continuous profiler behind the speed campaign: a
// dependency-free region profiler that attributes wall time and sampled heap
// allocation to named code regions (broker append, WAL writes, pipeline
// phases, TSDB scrapes) on every call, all the time — not just when someone
// remembers to attach pprof. Region handles are resolved once at wiring
// time; the hot path is two monotonic clock reads and a handful of atomic
// adds, cheap enough to live inside the produce/poll and WAL fast paths it
// measures.
//
// Region names are slash paths ("ingest/store", "broker/append/replicate")
// and the path hierarchy mirrors the call nesting, so self time falls out by
// subtraction: a region's self time is its cumulative time minus the
// cumulative time of its direct children. The flame view (flame.go) and the
// windowed hot-region ranking both derive from that identity.
//
// Allocation attribution is sampled: every samplePeriod-th call to a region
// brackets the runtime's global heap-allocation counters
// (runtime/metrics "/gc/heap/allocs:*") and charges the scaled delta to the
// region. Under concurrency the global counters make this an estimate; in
// the deterministic single-goroutine experiments it is exact up to sampling.
package profile

import (
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samplePeriod is the allocation-sampling period: one in every N calls to
// a region pays for two runtime/metrics reads. 256 keeps the sampled reads
// (and their pooled buffers, which every forced GC clears) far below the
// noise floor of the frame path's cpu_us_per_item.
const samplePeriod = 256

// Profiler owns the region table and the windowed hot-region view. All
// methods are safe for concurrent use; Region handles are meant to be
// resolved once at wiring time and kept.
type Profiler struct {
	sampleEvery uint64 // samplePeriod; tests in this package may change it

	mu      sync.RWMutex
	regions map[string]*Region

	// Windowed view, advanced by Tick: per-region cumulative wall at the
	// last tick plus the hot ranking computed from the deltas.
	hotMu    sync.Mutex
	lastWall map[string]int64
	hot      []HotRegion
	ticks    int64
}

// New builds a profiler; recording is always on.
func New() *Profiler {
	return &Profiler{
		sampleEvery: samplePeriod,
		regions:     make(map[string]*Region),
		lastWall:    make(map[string]int64),
	}
}

// Region returns the named region, creating it on first use. Names are
// slash paths whose hierarchy should mirror the call nesting.
func (p *Profiler) Region(name string) *Region {
	p.mu.RLock()
	r, ok := p.regions[name]
	p.mu.RUnlock()
	if ok {
		return r
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok = p.regions[name]; ok {
		return r
	}
	r = &Region{name: name, prof: p}
	p.regions[name] = r
	return r
}

// RegionNames lists registered region names, sorted.
func (p *Profiler) RegionNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.regions))
	for n := range p.regions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Region is one named code region's accumulators. A nil *Region is a valid,
// inert handle: Start on it returns a no-op span, so components can be
// wired without a profiler.
type Region struct {
	name string
	prof *Profiler

	wallNanos  atomic.Int64
	allocBytes atomic.Int64 // sampled, scaled estimate
	allocObjs  atomic.Int64 // sampled, scaled estimate
	// seq counts span entries; it doubles as the call counter and the
	// allocation-sampling phase, keeping the hot path at one counter.
	seq atomic.Uint64
}

// monoBase anchors the span clock: nanotime reads only the monotonic clock
// (via time.Since against a fixed base), which costs roughly half a full
// time.Now — the difference is visible at per-record span frequency.
var monoBase = time.Now()

// nanotime returns monotonic nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(monoBase)) }

// Span is one in-flight region entry. It is returned by value and carries
// no heap allocation; the zero Span (nil region) ends as a no-op.
type Span struct {
	r       *Region
	start   int64 // monotonic nanos
	bytes0  uint64
	objs0   uint64
	sampled bool
}

// Start opens a span on the region. Nil-safe: a nil region returns an inert
// span.
func (r *Region) Start() Span {
	if r == nil {
		return Span{}
	}
	return r.startAt(nanotime())
}

// StartAt opens a span against a clock reading the caller already holds —
// Now, or an enclosing span's StartTime — so sibling spans opened at the
// same instant share a single read. Nil-safe.
func (r *Region) StartAt(at int64) Span {
	if r == nil {
		return Span{}
	}
	return r.startAt(at)
}

func (r *Region) startAt(at int64) Span {
	sp := Span{r: r, start: at}
	seq := r.seq.Add(1)
	if seq%r.prof.sampleEvery == 0 {
		sp.bytes0, sp.objs0 = readHeapAllocs()
		sp.sampled = true
	}
	return sp
}

// Now returns the profiler clock's current reading, for StartAt/EndAt.
func Now() int64 { return nanotime() }

// StartTime returns the clock reading the span was opened at (zero for an
// inert span), so a nested span can open at the same instant via StartAt.
func (s Span) StartTime() int64 { return s.start }

// End closes the span, folding its wall time — and, on sampled calls, its
// scaled allocation delta — into the region.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.endAt(nanotime())
}

// EndAt closes the span like End but against a clock reading the caller
// took with Now — the hot-path shape for nested spans that end at the same
// instant, which then share a single read.
func (s Span) EndAt(at int64) {
	if s.r == nil {
		return
	}
	s.endAt(at)
}

func (s Span) endAt(at int64) {
	s.r.wallNanos.Add(at - s.start)
	if s.sampled {
		b1, o1 := readHeapAllocs()
		scale := int64(s.r.prof.sampleEvery)
		if db := int64(b1 - s.bytes0); db > 0 {
			s.r.allocBytes.Add(db * scale)
		}
		if do := int64(o1 - s.objs0); do > 0 {
			s.r.allocObjs.Add(do * scale)
		}
	}
}

// Calls returns the region's span-entry count (in-flight spans are
// included).
func (r *Region) Calls() uint64 { return r.seq.Load() }

// WallSeconds returns the region's cumulative wall time in seconds.
func (r *Region) WallSeconds() float64 { return float64(r.wallNanos.Load()) / 1e9 }

// AllocBytes returns the region's sampled, scaled allocation estimate.
func (r *Region) AllocBytes() int64 { return r.allocBytes.Load() }

// heapAllocSamples pools the runtime/metrics read buffers so sampled spans
// do not allocate on the measurement path.
var heapAllocSamples = sync.Pool{New: func() any {
	s := make([]metrics.Sample, 2)
	s[0].Name = "/gc/heap/allocs:bytes"
	s[1].Name = "/gc/heap/allocs:objects"
	return &s
}}

// readHeapAllocs reads the process-wide cumulative heap allocation counters.
func readHeapAllocs() (bytes, objects uint64) {
	sp := heapAllocSamples.Get().(*[]metrics.Sample)
	metrics.Read(*sp)
	bytes, objects = (*sp)[0].Value.Uint64(), (*sp)[1].Value.Uint64()
	heapAllocSamples.Put(sp)
	return bytes, objects
}

// RegionStat is one region's snapshot for /api/profile and report tables.
type RegionStat struct {
	Region       string  `json:"region"`
	Calls        uint64  `json:"calls"`
	CumSeconds   float64 `json:"cumSeconds"`
	SelfSeconds  float64 `json:"selfSeconds"`
	AllocBytes   int64   `json:"allocBytes"`
	AllocObjects int64   `json:"allocObjects"`
	BytesPerOp   float64 `json:"bytesPerOp"`
	AllocsPerOp  float64 `json:"allocsPerOp"`
}

// Snapshot returns every region's cumulative totals, sorted by name. Self
// time is derived from the path hierarchy: cumulative minus the direct
// children's cumulative, clamped at zero.
func (p *Profiler) Snapshot() []RegionStat {
	p.mu.RLock()
	regions := make([]*Region, 0, len(p.regions))
	for _, r := range p.regions {
		regions = append(regions, r)
	}
	p.mu.RUnlock()

	wall := make(map[string]int64, len(regions))
	for _, r := range regions {
		wall[r.name] = r.wallNanos.Load()
	}
	self := selfNanos(wall)

	out := make([]RegionStat, 0, len(regions))
	for _, r := range regions {
		st := RegionStat{
			Region:       r.name,
			Calls:        r.seq.Load(),
			CumSeconds:   float64(wall[r.name]) / 1e9,
			SelfSeconds:  float64(self[r.name]) / 1e9,
			AllocBytes:   r.allocBytes.Load(),
			AllocObjects: r.allocObjs.Load(),
		}
		if st.Calls > 0 {
			st.BytesPerOp = float64(st.AllocBytes) / float64(st.Calls)
			st.AllocsPerOp = float64(st.AllocObjects) / float64(st.Calls)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// parentOf returns the slash-path parent ("" for roots).
func parentOf(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return ""
}

// selfNanos derives per-region self time from cumulative time: cumulative
// minus the sum of direct children's cumulative, clamped at zero (concurrent
// measurement can make a child's window spill past its parent's by clock
// granularity). Children whose recorded parent region does not exist charge
// nothing — their time stays their own and the parent shows up synthesized
// in the flame view instead.
func selfNanos(wall map[string]int64) map[string]int64 {
	self := make(map[string]int64, len(wall))
	for name, v := range wall {
		self[name] = v
	}
	for name, v := range wall {
		parent := parentOf(name)
		if parent == "" {
			continue
		}
		if _, ok := wall[parent]; ok {
			self[parent] -= v
		}
	}
	for name, v := range self {
		if v < 0 {
			self[name] = 0
		}
	}
	return self
}

// HotRegion is one region's share of the last tick window, ranked by
// windowed self time.
type HotRegion struct {
	Region      string  `json:"region"`
	SelfSeconds float64 `json:"selfSeconds"` // self time inside the window
	CumSeconds  float64 `json:"cumSeconds"`  // cumulative time inside the window
	Share       float64 `json:"share"`       // of the window's total self time
}

// Tick closes the current observation window: it computes every region's
// wall-time delta since the previous Tick, derives windowed self time from
// the path hierarchy, and stores the ranking HotRegions serves. Drive it
// from the same deterministic loop as the TSDB scrape (core.MonitorTick
// calls it right before Scrape so the gauges the scrape reads are fresh).
func (p *Profiler) Tick() {
	p.mu.RLock()
	wall := make(map[string]int64, len(p.regions))
	for name, r := range p.regions {
		wall[name] = r.wallNanos.Load()
	}
	p.mu.RUnlock()

	p.hotMu.Lock()
	defer p.hotMu.Unlock()
	delta := make(map[string]int64, len(wall))
	for name, v := range wall {
		delta[name] = v - p.lastWall[name]
		p.lastWall[name] = v
	}
	self := selfNanos(delta)
	var total int64
	for _, v := range self {
		total += v
	}
	hot := make([]HotRegion, 0, len(self))
	for name, v := range self {
		h := HotRegion{
			Region:      name,
			SelfSeconds: float64(v) / 1e9,
			CumSeconds:  float64(delta[name]) / 1e9,
		}
		if total > 0 {
			h.Share = float64(v) / float64(total)
		}
		hot = append(hot, h)
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].SelfSeconds != hot[j].SelfSeconds {
			return hot[i].SelfSeconds > hot[j].SelfSeconds
		}
		return hot[i].Region < hot[j].Region
	})
	p.hot = hot
	p.ticks++
}

// HotRegions returns the last window's ranking (hottest first), capped at n
// (n <= 0 means all).
func (p *Profiler) HotRegions(n int) []HotRegion {
	p.hotMu.Lock()
	defer p.hotMu.Unlock()
	out := make([]HotRegion, len(p.hot))
	copy(out, p.hot)
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Ticks returns how many observation windows have closed.
func (p *Profiler) Ticks() int64 {
	p.hotMu.Lock()
	defer p.hotMu.Unlock()
	return p.ticks
}

// HotSelfSeconds returns the hottest region's windowed self seconds (0 when
// no window has closed) — the scalar the anomaly alert rule watches.
func (p *Profiler) HotSelfSeconds() float64 {
	p.hotMu.Lock()
	defer p.hotMu.Unlock()
	if len(p.hot) == 0 {
		return 0
	}
	return p.hot[0].SelfSeconds
}

// HotShare returns the hottest region's share of the last window's total
// self time.
func (p *Profiler) HotShare() float64 {
	p.hotMu.Lock()
	defer p.hotMu.Unlock()
	if len(p.hot) == 0 {
		return 0
	}
	return p.hot[0].Share
}

// WindowSelfSeconds returns one region's windowed self seconds from the
// last tick (0 if the region had no window activity).
func (p *Profiler) WindowSelfSeconds(name string) float64 {
	p.hotMu.Lock()
	defer p.hotMu.Unlock()
	for _, h := range p.hot {
		if h.Region == name {
			return h.SelfSeconds
		}
	}
	return 0
}

// CaptureCPU writes a runtime/pprof CPU profile of fn to path — the escape
// hatch from region-level attribution down to function-level flame graphs
// when a region's self time needs explaining.
func CaptureCPU(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}
