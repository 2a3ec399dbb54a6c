// Package telemetry is the observability backbone of the
// cyberinfrastructure: a dependency-free metrics registry (counters,
// gauges, histograms with fixed exponential buckets and quantile summaries)
// plus a lightweight span tracer for per-tier latency attribution. The hot
// record path — Counter.Add, Gauge.Set, Histogram.Observe — is lock-free
// and allocation-free, so instrumentation can live inside the broker,
// flume, and storage fast paths without perturbing what it measures.
//
// Components that already keep their own counters (retry policies,
// breakers, HDFS clusters, HBase tables) are exposed at scrape time via
// CounterFunc/GaugeFunc instead of double-counting on the hot path.
//
// Metric naming follows the repo convention cityinfra_<subsystem>_<name>,
// with Prometheus-style {label="value"} suffixes baked into the registered
// name (labels are static for this in-process system, so pre-formatting
// them keeps the record path free of string work).
package telemetry

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Sentinel errors.
var (
	ErrDuplicateMetric = errors.New("telemetry: metric already registered with a different type")
)

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters should normally come from Registry.Counter so they appear in
// the exposition output.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind enumerates registered metric types.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// metric is one registered instrument, or a vec family's place in the
// registry's exposition order.
type metric struct {
	name   string // full name including any {label="value"} suffix
	family string // name without its label block: the HELP/TYPE family
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
	vec     *vecFamily // set on a vec family's slot: its series are the family's members
}

// Registry holds named metrics and renders them for exposition. All
// registration methods are get-or-create and safe for concurrent use;
// the returned instruments are the hot-path handles.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric // plain instruments by full name
	// order is every plain instrument and one slot per vec family, in
	// exposition order: family name, then full name. Registration inserts
	// by binary search; a vec family keeps its own series in order (vec.go),
	// so promotion and demotion never touch it. Walks read the slice with no
	// lock held, so once one has taken it (shared), the next registration
	// copies it before changing it.
	order  []*metric
	shared atomic.Bool
	vecs   []*vecFamily
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// baseName strips the {label...} suffix, yielding the metric family name
// used for HELP/TYPE lines.
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// newMetric builds a plain instrument's record.
func newMetric(name, help string, kind metricKind) *metric {
	return &metric{name: name, family: baseName(name), help: help, kind: kind}
}

// placeLocked puts m into the exposition order, replacing the plain
// instrument of the same name if there is one. A plain instrument in a vec
// family's name space is a wiring bug, like a type collision, and panics.
// Caller holds r.mu.
func (r *Registry) placeLocked(m *metric) {
	for _, v := range r.vecs {
		if v.name == m.family {
			panic(fmt.Errorf("%w: %s is in vec family %s", ErrDuplicateMetric, m.name, v.name))
		}
	}
	i := sort.Search(len(r.order), func(i int) bool {
		o := r.order[i]
		return o.family > m.family || (o.family == m.family && o.name >= m.name)
	})
	r.metrics[m.name] = m
	r.ownOrderLocked()
	if i < len(r.order) && r.order[i].name == m.name {
		r.order[i] = m
		return
	}
	r.order = slices.Insert(r.order, i, m)
}

// ownOrderLocked makes r.order safe to change in place: a walk may still be
// reading the array it took, so after one has, the array is copied once.
// Caller holds r.mu.
func (r *Registry) ownOrderLocked() {
	if r.shared.Load() {
		r.order = append(make([]*metric, 0, len(r.order)+1), r.order...)
		r.shared.Store(false)
	}
}

func (r *Registry) lookupOrCreate(name, help string, kind metricKind) (*metric, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			return nil, fmt.Errorf("%w: %s is %s, requested %s", ErrDuplicateMetric, name, m.kind, kind)
		}
		return m, nil
	}
	m := newMetric(name, help, kind)
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	}
	r.placeLocked(m)
	return m, nil
}

// Counter returns the named counter, creating it on first use. A name
// collision with a different metric type panics: it is a wiring bug, not a
// runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	m, err := r.lookupOrCreate(name, help, kindCounter)
	if err != nil {
		panic(err)
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m, err := r.lookupOrCreate(name, help, kindGauge)
	if err != nil {
		panic(err)
	}
	return m.gauge
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (nil means DefBuckets). Bounds on an existing
// histogram are not re-checked: the first registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Errorf("%w: %s is %s, requested histogram", ErrDuplicateMetric, name, m.kind))
		}
		return m.hist
	}
	m := newMetric(name, help, kindHistogram)
	m.hist = NewHistogram(buckets)
	r.placeLocked(m)
	return m.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for components that already maintain their own monotonic stats
// (retry policies, breakers, HDFS block counters) so the hot path is not
// instrumented twice. Re-registering a name replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	m := newMetric(name, help, kindCounterFunc)
	m.fn = fn
	r.mu.Lock()
	defer r.mu.Unlock()
	r.placeLocked(m)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := newMetric(name, help, kindGaugeFunc)
	m.fn = fn
	r.mu.Lock()
	defer r.mu.Unlock()
	r.placeLocked(m)
}

// exposition returns the exposition order for one walk, after letting every
// vec family re-rank its children, so what gets exposed is the heavy-hitter
// set as of this call. The returned array is never written again, so the
// walk holds no registry lock and CounterFunc/GaugeFunc callbacks run with
// none held; a vec family's members are read under the family's lock.
func (r *Registry) exposition() []*metric {
	r.mu.RLock()
	vecs, order := r.vecs, r.order
	r.shared.Store(true)
	r.mu.RUnlock()
	for _, v := range vecs {
		v.rebalance()
	}
	return order
}

// Point is one metric's snapshot for report tables.
type Point struct {
	Name  string
	Type  string
	Value float64 // counter/gauge value; histogram count
	// Histogram-only summary (zero for other types).
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
	// ExemplarTrace is the trace id of the worst-bucket exemplar, when the
	// histogram retained one — the id a p99 outlier resolves to.
	ExemplarTrace string
}

// Snapshot returns every metric's current value in exposition order.
func (r *Registry) Snapshot() []Point {
	order := r.exposition()
	n := 0
	for _, m := range order {
		if m.vec != nil {
			n += m.vec.seriesCount()
		} else {
			n++
		}
	}
	return appendPoints(make([]Point, 0, n), order)
}

// AppendSnapshot appends every metric's current value, in exposition order,
// to dst and returns the extended slice — Snapshot into a buffer the caller
// keeps between calls.
func (r *Registry) AppendSnapshot(dst []Point) []Point {
	return appendPoints(dst, r.exposition())
}

func appendPoints(dst []Point, order []*metric) []Point {
	for _, m := range order {
		if f := m.vec; f != nil {
			f.mu.Lock()
			for _, s := range f.members {
				dst = appendPoint(dst, s)
			}
			f.mu.Unlock()
			continue
		}
		dst = appendPoint(dst, m)
	}
	return dst
}

// appendPoint appends one series' current value. It appends rather than
// returns the Point: a returned 96-byte Point is copied once more, and once
// per series shows in a snapshot's profile.
func appendPoint(dst []Point, m *metric) []Point {
	p := Point{Name: m.name, Type: m.kind.String()}
	switch m.kind {
	case kindCounter:
		p.Value = float64(m.counter.Value())
	case kindGauge:
		p.Value = m.gauge.Value()
	case kindCounterFunc, kindGaugeFunc:
		p.Value = m.fn()
	case kindHistogram:
		c, s := m.hist.Count(), m.hist.Sum()
		p.Count, p.Sum, p.Value = c, s, float64(c)
		p.P50 = m.hist.Quantile(0.50)
		p.P95 = m.hist.Quantile(0.95)
		p.P99 = m.hist.Quantile(0.99)
		if ex, ok := m.hist.WorstExemplar(); ok {
			p.ExemplarTrace = ex.TraceID
		}
	}
	return append(dst, p)
}
