package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Vec families give the registry a bounded dimensional layer: a
// CounterVec/GaugeVec/HistogramVec is one metric family fanned out over one
// label (for this system, almost always camera="..."), returning cached
// per-label handles whose record path is lock-free and allocation-free.
//
// Cardinality is bounded per family by a space-saving-style top-K
// heavy-hitter tracker. Every label value keeps an exact observation count
// on its handle forever (a few atomics — cheap at fleet scale), but only
// the K busiest values are materialized as real registry series; everyone
// else records into a single {label="~other"} rollup series. Membership is
// checked at every snapshot (i.e. every scrape tick) and re-sorted only when
// a tail label has overtaken a member: a demoted child's materialized counts
// are folded into the rollup — so the sum over exposed series always equals
// the sum over all observations, and every exposed series stays monotone —
// and a promoted child restarts a fresh series from zero (its history stays
// inside the rollup; that is the space-saving trade). Each fold increments
// cityinfra_telemetry_series_rolled_up_total.
// A 200+-camera fleet therefore costs at most K+1 series per family in the
// registry and the TSDB rings, no matter how wide the fleet grows.

// RollupValue is the label value of the tail-rollup series.
const RollupValue = "~other"

// RolledUpMetric counts vec children folded back into a rollup series.
const RolledUpMetric = "cityinfra_telemetry_series_rolled_up_total"

// DefaultVecMaxSeries is the per-family top-K budget when the caller passes
// maxSeries <= 0.
const DefaultVecMaxSeries = 16

// vecChild is one label value's state: the exact counts that rank it, and
// the atomic target pointers its handle records through. Demotion retargets
// the pointers at the rollup instruments, so cached handles never go stale.
type vecChild struct {
	value string
	full  string // canonical family{label="value"} name

	obs  atomic.Uint64 // exact adds (counter) / observations (hist) / writes (gauge)
	sum  atomic.Uint64 // float64 bits: exact observed sum (hist) or last set (gauge)
	real atomic.Bool

	tgtC atomic.Pointer[Counter]
	tgtG atomic.Pointer[Gauge]
	tgtH atomic.Pointer[Histogram]
}

// vecFamily is the shared implementation behind the three Vec types.
type vecFamily struct {
	reg     *Registry
	name    string
	help    string
	label   string
	kind    metricKind
	buckets []float64
	maxK    int

	rolledUp *Counter // registry-wide fold accounting

	rollupC *Counter
	rollupG *Gauge
	rollupH *Histogram

	mu       sync.Mutex
	children map[string]*vecChild
	ranked   []*vecChild // every child: as rebalance last sorted them, then arrivals since
	real     int         // children currently materialized as registry series
}

// vec looks up or creates a family. Name/label/kind collisions panic like
// Registry.Counter does: they are wiring bugs.
func (r *Registry) vec(name, help, label string, kind metricKind, buckets []float64, maxSeries int) *vecFamily {
	if !validLabelKey(label) {
		panic(fmt.Errorf("telemetry: bad vec label name %q for %s", label, name))
	}
	if maxSeries <= 0 {
		maxSeries = DefaultVecMaxSeries
	}
	r.mu.Lock()
	for _, v := range r.vecs {
		if v.name == name {
			if v.kind != kind || v.label != label {
				r.mu.Unlock()
				panic(fmt.Errorf("%w: vec %s is %s over %q, requested %s over %q",
					ErrDuplicateMetric, name, v.kind, v.label, kind, label))
			}
			r.mu.Unlock()
			return v
		}
	}
	f := &vecFamily{
		reg: r, name: name, help: help, label: label, kind: kind,
		buckets: buckets, maxK: maxSeries,
		children: make(map[string]*vecChild),
	}
	r.vecs = append(r.vecs, f)
	r.mu.Unlock()

	f.rolledUp = r.Counter(RolledUpMetric,
		"vec children demoted out of their family's top-K and folded into its {~other} rollup series")
	rollupName := FormatName(name, LabelSet{{Key: label, Value: RollupValue}})
	switch kind {
	case kindCounter:
		f.rollupC = r.Counter(rollupName, help)
	case kindGauge:
		f.rollupG = r.Gauge(rollupName, help)
	case kindHistogram:
		f.rollupH = r.Histogram(rollupName, help, buckets)
	}
	return f
}

// child returns the cached child for one label value, creating it on first
// use. While the family has spare top-K budget the child is materialized
// immediately; past the budget it starts life recording into the rollup and
// earns a real series by out-observing a member (see rebalance).
func (f *vecFamily) child(value string) *vecChild {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	c := &vecChild{
		value: value,
		full:  FormatName(f.name, LabelSet{{Key: f.label, Value: value}}),
	}
	if f.real < f.maxK {
		f.materialize(c)
	} else {
		f.retargetRollup(c)
	}
	f.children[value] = c
	f.ranked = append(f.ranked, c)
	return c
}

// materialize registers a fresh instrument for the child and points its
// handle target at it. Caller holds f.mu.
func (f *vecFamily) materialize(c *vecChild) {
	switch f.kind {
	case kindCounter:
		c.tgtC.Store(f.reg.Counter(c.full, f.help))
	case kindGauge:
		c.tgtG.Store(f.reg.Gauge(c.full, f.help))
	case kindHistogram:
		c.tgtH.Store(f.reg.Histogram(c.full, f.help, f.buckets))
	}
	c.real.Store(true)
	f.real++
}

// retargetRollup points a child's handle target at the family rollup
// instruments. Caller holds f.mu.
func (f *vecFamily) retargetRollup(c *vecChild) {
	switch f.kind {
	case kindCounter:
		c.tgtC.Store(f.rollupC)
	case kindGauge:
		c.tgtG.Store(f.rollupG)
	case kindHistogram:
		c.tgtH.Store(f.rollupH)
	}
}

// demote folds the child's materialized series into the rollup, drops the
// series from the registry, and retargets the handle. Caller holds f.mu.
func (f *vecFamily) demote(c *vecChild) {
	switch f.kind {
	case kindCounter:
		if v := c.tgtC.Load().Value(); v > 0 {
			f.rollupC.v.Add(v)
		}
	case kindHistogram:
		f.rollupH.mergeFrom(c.tgtH.Load())
	case kindGauge:
		// Gauges are point-in-time: nothing to fold. The rollup gauge holds
		// whatever a tail child last wrote.
	}
	f.reg.unregister(c.full)
	f.retargetRollup(c)
	c.real.Store(false)
	f.real--
	f.rolledUp.Inc()
}

// rebalance re-ranks children by exact observation count and swaps series
// membership so the top K stay materialized. Ties keep the incumbent (then
// break by label value), so uniform fleets don't churn. The registry calls
// this before every snapshot/exposition pass.
//
// Under that order a full set of members is already the top K when no tail
// child has more observations than the least-observed member: a member wins
// every tie. One pass checks that, and the sort runs only when it fails. The
// sort is in place: the comparison is a total order, so the slice's previous
// order cannot change the outcome.
func (f *vecFamily) rebalance() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) <= f.maxK {
		return
	}
	kids := f.ranked
	if f.real == f.maxK {
		minMember, maxTail := uint64(math.MaxUint64), uint64(0)
		for _, c := range kids {
			if n := c.obs.Load(); c.real.Load() {
				minMember = min(minMember, n)
			} else {
				maxTail = max(maxTail, n)
			}
		}
		if minMember >= maxTail {
			return
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		oi, oj := kids[i].obs.Load(), kids[j].obs.Load()
		if oi != oj {
			return oi > oj
		}
		ri, rj := kids[i].real.Load(), kids[j].real.Load()
		if ri != rj {
			return ri
		}
		return kids[i].value < kids[j].value
	})
	for _, c := range kids[f.maxK:] {
		if c.real.Load() {
			f.demote(c)
		}
	}
	for _, c := range kids[:f.maxK] {
		if !c.real.Load() {
			f.materialize(c)
		}
	}
}

// seriesCount returns how many registry series the family currently owns
// (materialized children plus the rollup).
func (f *vecFamily) seriesCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.real + 1
}

// addFloatBits CAS-adds v into a float64-bits atomic.
func addFloatBits(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if u.CompareAndSwap(old, nw) {
			return
		}
	}
}

// CounterVec is a counter family over one label.
type CounterVec struct{ f *vecFamily }

// CounterVec returns the named counter family over the given label,
// creating it on first use. maxSeries is the top-K materialization budget
// (<= 0 means DefaultVecMaxSeries).
func (r *Registry) CounterVec(name, help, label string, maxSeries int) *CounterVec {
	return &CounterVec{f: r.vec(name, help, label, kindCounter, nil, maxSeries)}
}

// With returns the cached handle for one label value.
func (v *CounterVec) With(value string) *LabeledCounter {
	return &LabeledCounter{c: v.f.child(value)}
}

// SeriesCount returns materialized children + 1 (the rollup).
func (v *CounterVec) SeriesCount() int { return v.f.seriesCount() }

// LabeledCounter is a cached per-label counter handle. Add/Inc are two
// atomic adds and one atomic load — no locks, no allocation — and stay
// valid across demotion: a tail handle records into the rollup series.
type LabeledCounter struct{ c *vecChild }

// Inc adds one.
func (h *LabeledCounter) Inc() { h.Add(1) }

// Add adds n (non-positive deltas are ignored, like Counter.Add).
func (h *LabeledCounter) Add(n int) {
	if n <= 0 {
		return
	}
	h.c.obs.Add(uint64(n))
	h.c.tgtC.Load().Add(n)
}

// Value returns the exact per-label total, independent of series membership.
func (h *LabeledCounter) Value() uint64 { return h.c.obs.Load() }

// Real reports whether this label currently owns a materialized series.
func (h *LabeledCounter) Real() bool { return h.c.real.Load() }

// GaugeVec is a gauge family over one label. Tail children share the rollup
// gauge last-write-wins, so callers that only Set on signal (e.g. a nonzero
// burn rate) naturally promote exactly the labels that matter.
type GaugeVec struct{ f *vecFamily }

// GaugeVec returns the named gauge family over the given label.
func (r *Registry) GaugeVec(name, help, label string, maxSeries int) *GaugeVec {
	return &GaugeVec{f: r.vec(name, help, label, kindGauge, nil, maxSeries)}
}

// With returns the cached handle for one label value.
func (v *GaugeVec) With(value string) *LabeledGauge {
	return &LabeledGauge{c: v.f.child(value)}
}

// SeriesCount returns materialized children + 1 (the rollup).
func (v *GaugeVec) SeriesCount() int { return v.f.seriesCount() }

// LabeledGauge is a cached per-label gauge handle.
type LabeledGauge struct{ c *vecChild }

// Set writes the gauge. Each write also counts toward the label's
// heavy-hitter rank.
func (h *LabeledGauge) Set(v float64) {
	h.c.obs.Add(1)
	h.c.sum.Store(math.Float64bits(v))
	h.c.tgtG.Load().Set(v)
}

// Value returns the last value written through this handle.
func (h *LabeledGauge) Value() float64 { return math.Float64frombits(h.c.sum.Load()) }

// Real reports whether this label currently owns a materialized series.
func (h *LabeledGauge) Real() bool { return h.c.real.Load() }

// HistogramVec is a histogram family over one label.
type HistogramVec struct{ f *vecFamily }

// HistogramVec returns the named histogram family over the given label with
// the given bucket bounds (nil means DefBuckets; first registration wins).
func (r *Registry) HistogramVec(name, help, label string, buckets []float64, maxSeries int) *HistogramVec {
	return &HistogramVec{f: r.vec(name, help, label, kindHistogram, buckets, maxSeries)}
}

// With returns the cached handle for one label value.
func (v *HistogramVec) With(value string) *LabeledHistogram {
	return &LabeledHistogram{c: v.f.child(value)}
}

// SeriesCount returns materialized children + 1 (the rollup).
func (v *HistogramVec) SeriesCount() int { return v.f.seriesCount() }

// LabeledHistogram is a cached per-label histogram handle.
type LabeledHistogram struct{ c *vecChild }

// Observe records one value: exact per-label count and sum on the handle,
// plus the bucket observation on whichever series (own or rollup) the label
// currently owns.
func (h *LabeledHistogram) Observe(v float64) {
	h.c.obs.Add(1)
	addFloatBits(&h.c.sum, v)
	h.c.tgtH.Load().Observe(v)
}

// Count returns the exact per-label observation count.
func (h *LabeledHistogram) Count() uint64 { return h.c.obs.Load() }

// Sum returns the exact per-label observed sum.
func (h *LabeledHistogram) Sum() float64 { return math.Float64frombits(h.c.sum.Load()) }

// Mean returns the exact per-label mean observation (0 when empty).
func (h *LabeledHistogram) Mean() float64 {
	c := h.c.obs.Load()
	if c == 0 {
		return 0
	}
	return h.Sum() / float64(c)
}

// Quantile estimates the q-quantile from the series this label records into:
// exact bucket data for top-K members, the shared tail pool otherwise.
func (h *LabeledHistogram) Quantile(q float64) float64 { return h.c.tgtH.Load().Quantile(q) }

// Real reports whether this label currently owns a materialized series.
func (h *LabeledHistogram) Real() bool { return h.c.real.Load() }
