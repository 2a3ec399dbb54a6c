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

// metric is one registered instrument.
type metric struct {
	name string // full name including any {label="value"} suffix
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry holds named metrics and renders them for exposition. All
// registration methods are get-or-create and safe for concurrent use;
// the returned instruments are the hot-path handles.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	// sorted is metrics in exposition order. sortedMetrics builds it and
	// every change to the set of metrics drops it; it is shared with every
	// reader, so nobody writes to it.
	sorted []*metric
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

func (r *Registry) lookupOrCreate(name, help string, kind metricKind) (*metric, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			return nil, fmt.Errorf("%w: %s is %s, requested %s", ErrDuplicateMetric, name, m.kind, kind)
		}
		return m, nil
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	}
	r.metrics[name] = m
	r.sorted = nil
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
	m := &metric{name: name, help: help, kind: kindHistogram, hist: NewHistogram(buckets)}
	r.metrics[name] = m
	r.sorted = nil
	return m.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for components that already maintain their own monotonic stats
// (retry policies, breakers, HDFS block counters) so the hot path is not
// instrumented twice. Re-registering a name replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = &metric{name: name, help: help, kind: kindCounterFunc, fn: fn}
	r.sorted = nil
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = &metric{name: name, help: help, kind: kindGaugeFunc, fn: fn}
	r.sorted = nil
}

// unregister drops a metric by full name (vec demotion only; ordinary
// instruments are registered for life).
func (r *Registry) unregister(name string) {
	r.mu.Lock()
	delete(r.metrics, name)
	r.sorted = nil
	r.mu.Unlock()
}

// rebalanceVecs checks every vec family's children against its top-K budget
// before a snapshot, so what gets exposed is the heavy-hitter set as of this
// scrape. r.vecs only ever grows by append, so the slice read under the lock
// stays valid after it: nothing writes below its length.
func (r *Registry) rebalanceVecs() {
	r.mu.RLock()
	vecs := r.vecs
	r.mu.RUnlock()
	for _, v := range vecs {
		v.rebalance()
	}
}

// sortedMetrics returns the registry in deterministic exposition order:
// family name, then full name. The order is kept between calls and sorted
// again only after a registration or a vec demotion; the slice is shared,
// so callers read it and nothing else.
func (r *Registry) sortedMetrics() []*metric {
	r.rebalanceVecs()
	r.mu.RLock()
	out := r.sorted
	r.mu.RUnlock()
	if out != nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted != nil {
		return r.sorted
	}
	out = make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := baseName(out[i].name), baseName(out[j].name)
		if bi != bj {
			return bi < bj
		}
		return out[i].name < out[j].name
	})
	r.sorted = out
	return out
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
	ms := r.sortedMetrics()
	out := make([]Point, 0, len(ms))
	for _, m := range ms {
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
		out = append(out, p)
	}
	return out
}
