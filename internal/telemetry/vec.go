package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
// the K busiest values are materialized as series; everyone else records
// into a single {label="~other"} rollup series. The family owns its series:
// it holds the materialized children and the rollup in exposition order and
// takes one slot in the registry's order, so membership changes never touch
// the registry. Membership is checked at every snapshot (i.e. every scrape
// tick) and re-sorted only when a tail label has overtaken a member: a
// demoted child's materialized counts are folded into the rollup — so the
// sum over exposed series always equals the sum over all observations, and
// every exposed series stays monotone — and a promoted child restarts a
// fresh series from zero (its history stays inside the rollup; that is the
// space-saving trade). Each fold increments
// cityinfra_telemetry_series_rolled_up_total.
// A 200+-camera fleet therefore costs at most K+1 series per family in the
// registry and the TSDB rings, no matter how wide the fleet grows.

// RollupValue is the label value of the tail-rollup series. With(RollupValue)
// returns the rollup's own handle.
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
	value  string
	full   string  // canonical family{label="value"} name
	series *metric // the child's own series while materialized; guarded by the family's mu

	obs  atomic.Uint64 // exact adds (counter) / observations (hist) / writes (gauge)
	real atomic.Bool

	tgtC atomic.Pointer[Counter]
	tgtG atomic.Pointer[Gauge]
	tgtH atomic.Pointer[Histogram]
}

// vecFamily is the shared implementation behind the three Vec types.
type vecFamily struct {
	name    string
	help    string
	label   string
	kind    metricKind
	buckets []float64
	maxK    int

	rolledUp *Counter // registry-wide fold accounting
	rollup   *vecChild

	mu       sync.Mutex
	children map[string]*vecChild
	ranked   []*vecChild // every child: as rebalance last sorted them, then arrivals since
	members  []*metric   // materialized children's series and the rollup's, by full name
}

// vec looks up or creates a family. Name/label/kind collisions panic like
// Registry.Counter does: they are wiring bugs, and so is a family whose name
// plain instruments already use.
func (r *Registry) vec(name, help, label string, kind metricKind, buckets []float64, maxSeries int) *vecFamily {
	if !validLabelKey(label) {
		panic(fmt.Errorf("telemetry: bad vec label name %q for %s", label, name))
	}
	if maxSeries <= 0 {
		maxSeries = DefaultVecMaxSeries
	}
	rolledUp := r.Counter(RolledUpMetric,
		"vec children demoted out of their family's top-K and folded into its {~other} rollup series")
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.vecs {
		if v.name == name {
			if v.kind != kind || v.label != label {
				panic(fmt.Errorf("%w: vec %s is %s over %q, requested %s over %q",
					ErrDuplicateMetric, name, v.kind, v.label, kind, label))
			}
			return v
		}
	}
	i := sort.Search(len(r.order), func(i int) bool { return r.order[i].family >= name })
	if i < len(r.order) && r.order[i].family == name {
		panic(fmt.Errorf("%w: vec %s names a family of plain instruments", ErrDuplicateMetric, name))
	}
	f := &vecFamily{
		name: name, help: help, label: label, kind: kind,
		buckets: buckets, maxK: maxSeries, rolledUp: rolledUp,
		children: make(map[string]*vecChild),
	}
	f.rollup = f.newChild(RollupValue)
	f.materialize(f.rollup)
	r.vecs = append(r.vecs, f)
	r.ownOrderLocked()
	r.order = slices.Insert(r.order, i, &metric{name: name, family: name, help: help, kind: kind, vec: f})
	return f
}

func (f *vecFamily) newChild(value string) *vecChild {
	return &vecChild{value: value, full: FormatName(f.name, LabelSet{{Key: f.label, Value: value}})}
}

// child returns the cached child for one label value, creating it on first
// use. While the family has spare top-K budget the child is materialized
// immediately; past the budget it starts life recording into the rollup and
// earns a real series by out-observing a member (see rebalance).
func (f *vecFamily) child(value string) *vecChild {
	if value == RollupValue {
		return f.rollup
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	c := f.newChild(value)
	if f.real() < f.maxK {
		f.materialize(c)
	} else {
		f.retargetRollup(c)
	}
	f.children[value] = c
	f.ranked = append(f.ranked, c)
	return c
}

// real returns how many children are materialized. Caller holds f.mu.
func (f *vecFamily) real() int { return len(f.members) - 1 }

// materialize gives the child a fresh series, points its handle target at
// it and links it into the family's members. Caller holds f.mu.
func (f *vecFamily) materialize(c *vecChild) {
	m := &metric{name: c.full, family: f.name, help: f.help, kind: f.kind}
	switch f.kind {
	case kindCounter:
		m.counter = &Counter{}
		c.tgtC.Store(m.counter)
	case kindGauge:
		m.gauge = &Gauge{}
		c.tgtG.Store(m.gauge)
	case kindHistogram:
		m.hist = NewHistogram(f.buckets)
		c.tgtH.Store(m.hist)
	}
	i, _ := slices.BinarySearchFunc(f.members, c.full, func(m *metric, full string) int { return strings.Compare(m.name, full) })
	f.members = slices.Insert(f.members, i, m)
	c.series = m
	c.real.Store(true)
}

// retargetRollup points a child's handle target at the family rollup
// instruments. Caller holds f.mu.
func (f *vecFamily) retargetRollup(c *vecChild) {
	switch f.kind {
	case kindCounter:
		c.tgtC.Store(f.rollup.series.counter)
	case kindGauge:
		c.tgtG.Store(f.rollup.series.gauge)
	case kindHistogram:
		c.tgtH.Store(f.rollup.series.hist)
	}
}

// demote folds the child's materialized series into the rollup, unlinks the
// series from the family's members, and retargets the handle. Caller holds
// f.mu.
func (f *vecFamily) demote(c *vecChild) {
	switch f.kind {
	case kindCounter:
		if v := c.series.counter.Value(); v > 0 {
			f.rollup.series.counter.v.Add(v)
		}
	case kindHistogram:
		f.rollup.series.hist.mergeFrom(c.series.hist)
	case kindGauge:
		// Gauges are point-in-time: nothing to fold. The rollup gauge holds
		// whatever a tail child last wrote.
	}
	f.members = slices.DeleteFunc(f.members, func(m *metric) bool { return m == c.series })
	c.series = nil
	f.retargetRollup(c)
	c.real.Store(false)
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
	if f.real() == f.maxK {
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
	return len(f.members)
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
	h.c.tgtG.Load().Set(v)
}

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

// Observe records one value: the exact per-label count on the handle, plus
// the bucket observation on whichever series (own or rollup) the label
// currently owns.
func (h *LabeledHistogram) Observe(v float64) {
	h.c.obs.Add(1)
	h.c.tgtH.Load().Observe(v)
}

// Quantile estimates the q-quantile from the series this label records into:
// exact bucket data for top-K members, the shared tail pool otherwise.
func (h *LabeledHistogram) Quantile(q float64) float64 { return h.c.tgtH.Load().Quantile(q) }
