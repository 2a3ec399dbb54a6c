// Package tsdb is an embedded, dependency-free metrics time-series store:
// it periodically scrapes a telemetry.Registry into fixed-capacity
// ring-buffer series and answers windowed queries over the retained history
// — rate(), delta(), avg/min/max_over_time(), quantile_over_time() — so the
// dashboard tier can ask "what was the ingest rate over the last minute"
// instead of only "what is the counter now". An alert engine (alerts.go)
// evaluates declarative rules over the same query layer each scrape tick.
//
// Everything runs on an injected clock, so experiments and tests drive
// scrape ticks deterministically on the simulated clock without sleeping;
// production deployments pass time.Now and a real ticker.
package tsdb

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

// Sentinel errors.
var (
	ErrUnknownSeries = errors.New("tsdb: unknown series")
	ErrBadExpr       = errors.New("tsdb: bad query expression")
	ErrNoSamples     = errors.New("tsdb: not enough samples in window")
)

// Sample is one scraped observation of a series.
type Sample struct {
	TimeUnixNs int64   `json:"timeUnixNs"`
	Value      float64 `json:"value"`
}

// series is one metric's ring-buffer history. The family and parsed label
// set are computed once at creation so label-selector queries never re-parse
// names on the read path.
type series struct {
	kind   string // "counter" or "gauge"
	family string
	labels telemetry.LabelSet
	buf    []Sample
	next   int
	full   bool
	// unordered is set once a sample is older than the one before it (a
	// clock that stepped back); appendWindow then scans instead of searching.
	unordered bool
}

func (s *series) append(sm Sample) {
	if last, ok := s.latest(); ok && sm.TimeUnixNs < last.TimeUnixNs {
		s.unordered = true
	}
	s.buf[s.next] = sm
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
}

func (s *series) len() int {
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// at returns the i-th retained sample, oldest first.
func (s *series) at(i int) *Sample {
	if s.full {
		i += s.next
		if i >= len(s.buf) {
			i -= len(s.buf)
		}
	}
	return &s.buf[i]
}

func (s *series) latest() (Sample, bool) {
	if s.next == 0 && !s.full {
		return Sample{}, false
	}
	return s.buf[(s.next-1+len(s.buf))%len(s.buf)], true
}

// appendWindow appends the retained samples with timestamps in [lo, hi] to
// dst, chronological. The ring is in time order, so the window's ends are
// found by binary search and only the window is read.
func (s *series) appendWindow(dst []Sample, lo, hi int64) []Sample {
	n := s.len()
	if s.unordered {
		for i := 0; i < n; i++ {
			if sm := s.at(i); sm.TimeUnixNs >= lo && sm.TimeUnixNs <= hi {
				dst = append(dst, *sm)
			}
		}
		return dst
	}
	first := sort.Search(n, func(i int) bool { return s.at(i).TimeUnixNs >= lo })
	end := sort.Search(n, func(i int) bool { return s.at(i).TimeUnixNs > hi })
	for i := first; i < end; i++ {
		dst = append(dst, *s.at(i))
	}
	return dst
}

// Config sizes a Store.
type Config struct {
	// Capacity is the per-series ring size (<=0 means 512 samples).
	Capacity int
	// Now is the scrape clock (nil means time.Now). Experiments pass the
	// simulated clock's Now so history is deterministic.
	Now func() time.Time
}

// Store scrapes one registry into per-metric ring-buffer series. Scrape,
// queries, and inventory reads are all safe for concurrent use — the scrape
// takes the registry snapshot outside the store lock, so ingest traffic
// recording into the registry never blocks behind a query.
type Store struct {
	reg *telemetry.Registry
	now func() time.Time
	cap int

	// scrapeMu serializes scrapes. It guards the snapshot buffer, which the
	// registry fills outside mu, and each snapshot slot's binding to its
	// series: a slot is re-bound only when the point in it changes.
	scrapeMu sync.Mutex
	points   []telemetry.Point
	slots    []*binding
	bindings map[string]*binding // by point name

	mu        sync.RWMutex
	series    map[string]*series
	gen       uint64            // bumps when a series is created; matchSeries answers are cached against it
	exemplars map[string]string // histogram family -> worst-bucket trace id
	scrapes   int64

	// Continuous-profiling regions, resolved once by SetProfiler.
	profScrape *profile.Region
	profQuery  *profile.Region
}

// binding is the series one registry point scrapes into: one for a counter
// or gauge, the _count, _sum, _p50, _p95 and _p99 series for a histogram.
type binding struct {
	name, typ string
	series    []*series
}

// NewStore builds an empty store over the registry.
func NewStore(reg *telemetry.Registry, cfg Config) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Store{
		reg: reg, now: cfg.Now, cap: cfg.Capacity,
		bindings:  make(map[string]*binding),
		series:    make(map[string]*series),
		gen:       1, // a zero seriesMatch is stale
		exemplars: make(map[string]string),
	}
}

// Now returns the store's current clock reading.
func (st *Store) Now() time.Time { return st.now() }

// SetProfiler attributes scrape ticks ("tsdb/scrape") and query evaluation
// ("tsdb/query") to continuous-profiling regions. nil detaches.
func (st *Store) SetProfiler(p *profile.Profiler) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if p == nil {
		st.profScrape, st.profQuery = nil, nil
		return
	}
	st.profScrape = p.Region("tsdb/scrape")
	st.profQuery = p.Region("tsdb/query")
}

// profRegion reads one profiling handle under the read lock (scrape and
// query run concurrently with SetProfiler in tests).
func (st *Store) profRegion(query bool) *profile.Region {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if query {
		return st.profQuery
	}
	return st.profScrape
}

// Scrapes returns how many scrape ticks have run.
func (st *Store) Scrapes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.scrapes
}

// suffixName appends a suffix to a metric family, keeping any {label} block
// at the end: name{k="v"} + "_p99" -> name_p99{k="v"}.
func suffixName(name, suffix string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i] + suffix + name[i:]
		}
	}
	return name + suffix
}

// Scrape takes one registry snapshot at the current clock reading and
// appends a sample to every series. Counters and gauges map to one series
// each; histograms fan out into _count and _sum counter series plus _p50,
// _p95, and _p99 gauge series derived from the registry's quantile
// estimates (which is what quantile-over-history queries read). It returns
// the number of series updated.
func (st *Store) Scrape() int {
	sp := st.profRegion(false).Start()
	defer sp.End()
	st.scrapeMu.Lock()
	defer st.scrapeMu.Unlock()
	// Snapshot outside mu: CounterFunc/GaugeFunc callbacks read component
	// stats and must not serialize against concurrent queries.
	st.points = st.reg.AppendSnapshot(st.points[:0])
	at := st.now().UnixNano()

	st.mu.Lock()
	defer st.mu.Unlock()
	st.scrapes++
	updated := 0
	for i := range st.points {
		p := &st.points[i]
		if i == len(st.slots) {
			st.slots = append(st.slots, nil)
		}
		b := st.slots[i]
		if b == nil || b.name != p.Name || b.typ != p.Type {
			b = st.bindLocked(p)
			st.slots[i] = b
		}
		switch p.Type {
		case "counter", "gauge":
			b.series[0].append(Sample{TimeUnixNs: at, Value: p.Value})
		case "histogram":
			for j, v := range [...]float64{float64(p.Count), p.Sum, p.P50, p.P95, p.P99} {
				b.series[j].append(Sample{TimeUnixNs: at, Value: v})
			}
			if p.ExemplarTrace != "" {
				st.exemplars[p.Name] = p.ExemplarTrace
			}
		}
		updated += len(b.series)
	}
	return updated
}

// bindLocked returns the binding for a point, creating its series on first
// sight. Caller holds scrapeMu and mu.
func (st *Store) bindLocked(p *telemetry.Point) *binding {
	if b, ok := st.bindings[p.Name]; ok && b.typ == p.Type {
		return b
	}
	b := &binding{name: p.Name, typ: p.Type}
	switch p.Type {
	case "counter", "gauge":
		b.series = []*series{st.seriesLocked(p.Name, p.Type)}
	case "histogram":
		b.series = []*series{
			st.seriesLocked(suffixName(p.Name, "_count"), "counter"),
			st.seriesLocked(suffixName(p.Name, "_sum"), "counter"),
			st.seriesLocked(suffixName(p.Name, "_p50"), "gauge"),
			st.seriesLocked(suffixName(p.Name, "_p95"), "gauge"),
			st.seriesLocked(suffixName(p.Name, "_p99"), "gauge"),
		}
	}
	st.bindings[p.Name] = b
	return b
}

// seriesLocked returns the named series, creating it on first sight (a
// series keeps the kind it was created with). Caller holds mu.
func (st *Store) seriesLocked(name, kind string) *series {
	if s, ok := st.series[name]; ok {
		return s
	}
	s := &series{kind: kind, buf: make([]Sample, st.cap)}
	family, labels, err := telemetry.ParseName(name)
	if err != nil {
		family, labels = name, nil // unparsable names stay selectable verbatim
	}
	s.family, s.labels = family, labels
	st.series[name] = s
	st.gen++
	return s
}

// ExemplarTrace returns the most recently scraped worst-bucket exemplar
// trace id for a histogram family ("" when none was retained) — how a
// firing alert correlates itself to an inspectable trace.
func (st *Store) ExemplarTrace(family string) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.exemplars[family]
}

// Samples returns the retained samples of one series with timestamps in
// [from, to], chronological.
func (st *Store) Samples(name string, from, to time.Time) ([]Sample, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[name]
	if !ok {
		return nil, ErrUnknownSeries
	}
	return s.appendWindow(make([]Sample, 0), from.UnixNano(), to.UnixNano()), nil
}

// Latest returns the newest sample of one series.
func (st *Store) Latest(name string) (Sample, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[name]
	if !ok {
		return Sample{}, ErrUnknownSeries
	}
	sm, ok := s.latest()
	if !ok {
		return Sample{}, ErrNoSamples
	}
	return sm, nil
}

// SeriesInfo describes one retained series for the inventory endpoint.
type SeriesInfo struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Samples      int     `json:"samples"`
	FirstUnixNs  int64   `json:"firstUnixNs"`
	LatestUnixNs int64   `json:"latestUnixNs"`
	LatestValue  float64 `json:"latestValue"`
}

// Inventory lists every series in name order.
func (st *Store) Inventory() []SeriesInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]SeriesInfo, 0, len(st.series))
	for name, s := range st.series {
		info := SeriesInfo{Name: name, Kind: s.kind, Samples: s.len()}
		if last, ok := s.latest(); ok {
			info.FirstUnixNs = s.at(0).TimeUnixNs
			info.LatestUnixNs = last.TimeUnixNs
			info.LatestValue = last.Value
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
