package telemetry

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cityinfra_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("cityinfra_test_ops_total", "ops"); again != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := r.Gauge("cityinfra_test_depth", "depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cityinfra_test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge name collision")
		}
	}()
	r.Gauge("cityinfra_test_x", "")
}

func TestHistogramZeroObservations(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: count=%d sum=%g mean=%g", h.Count(), h.Sum(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%g) on empty histogram = %g, want 0", q, got)
		}
	}
	// Exposition of an empty histogram must still be well-formed.
	r := NewRegistry()
	r.Histogram("cityinfra_test_empty_seconds", "", []float64{1, 2})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cityinfra_test_empty_seconds_bucket{le="+Inf"} 0`,
		"cityinfra_test_empty_seconds_count 0",
		"cityinfra_test_empty_seconds_sum 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 3, 100, 1e9} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	if len(counts) != 4 {
		t.Fatalf("bucket slots = %d, want 4 (3 bounds + overflow)", len(counts))
	}
	if counts[3] != 2 {
		t.Fatalf("overflow bucket = %d, want 2", counts[3])
	}
	// Quantiles in the overflow region are capped at the largest finite
	// bound rather than reporting +Inf.
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("overflow quantile = %g, want 4", got)
	}
	if math.IsInf(h.Sum(), 0) || h.Sum() != 0.5+3+100+1e9 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	for i := 0; i < 100; i++ {
		h.Observe(15) // all in (10, 20]
	}
	q := h.Quantile(0.5)
	if q < 10 || q > 20 {
		t.Fatalf("p50 = %g, want inside (10, 20]", q)
	}
	if h.Quantile(0.01) > h.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len = %d", len(b))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(FormatName("cityinfra_broker_produce_total", LabelSet{{"topic", "tweets"}}), "produced records").Add(7)
	r.Counter(FormatName("cityinfra_broker_produce_total", LabelSet{{"topic", "waze"}}), "produced records").Add(3)
	r.Gauge("cityinfra_hdfs_live_datanodes", "live datanodes").Set(4)
	r.GaugeFunc("cityinfra_breaker_state", "breaker state", func() float64 { return 1 })
	r.CounterFunc("cityinfra_retry_retries_total", "retries", func() float64 { return 42 })
	h := r.Histogram("cityinfra_pipeline_ingest_seconds", "ingest latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cityinfra_broker_produce_total counter",
		`cityinfra_broker_produce_total{topic="tweets"} 7`,
		`cityinfra_broker_produce_total{topic="waze"} 3`,
		"# TYPE cityinfra_hdfs_live_datanodes gauge",
		"cityinfra_hdfs_live_datanodes 4",
		"cityinfra_breaker_state 1",
		"cityinfra_retry_retries_total 42",
		"# TYPE cityinfra_pipeline_ingest_seconds histogram",
		`cityinfra_pipeline_ingest_seconds_bucket{le="0.1"} 1`,
		`cityinfra_pipeline_ingest_seconds_bucket{le="1"} 2`,
		`cityinfra_pipeline_ingest_seconds_bucket{le="+Inf"} 3`,
		"cityinfra_pipeline_ingest_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even with multiple label sets.
	if n := strings.Count(out, "# TYPE cityinfra_broker_produce_total"); n != 1 {
		t.Fatalf("TYPE lines for family = %d, want 1", n)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Gauge("a_depth", "").Set(1)
	h := r.Histogram("c_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	pts := r.Snapshot()
	if len(pts) != 3 {
		t.Fatalf("snapshot = %d points", len(pts))
	}
	// Deterministic order: family-name sorted.
	if pts[0].Name != "a_depth" || pts[1].Name != "b_total" || pts[2].Name != "c_seconds" {
		t.Fatalf("order = %v", []string{pts[0].Name, pts[1].Name, pts[2].Name})
	}
	if pts[2].Count != 2 || pts[2].Sum != 5.5 || pts[2].P99 <= 0 {
		t.Fatalf("hist point = %+v", pts[2])
	}
}

// The record path must not allocate: it sits inside broker produce/poll and
// storage writes (acceptance criterion for this subsystem).
func TestRecordPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cityinfra_test_hot_total", "")
	g := r.Gauge("cityinfra_test_hot_depth", "")
	h := r.Histogram("cityinfra_test_hot_seconds", "", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		g.Add(0.5)
		h.Observe(0.0042)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f bytes-worth of objects per op, want 0", allocs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", []float64{0.5, 1})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%2) + 0.25)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-4)
	}
}

// expositionOrder is the order sortedMetrics promises, derived from scratch.
func expositionOrder(names []string) []string {
	out := append([]string(nil), names...)
	sort.Slice(out, func(i, j int) bool {
		if bi, bj := baseName(out[i]), baseName(out[j]); bi != bj {
			return bi < bj
		}
		return out[i] < out[j]
	})
	return out
}

func snapshotNames(r *Registry) []string {
	var names []string
	for _, p := range r.Snapshot() {
		names = append(names, p.Name)
	}
	return names
}

// TestExpositionOrderFollowsTheSet: the registry keeps its sorted order
// between snapshots, so each of the five ways the set of metrics changes has
// to drop it. A snapshot is taken before each change (so there is a kept
// order to go stale) and after it.
func TestExpositionOrderFollowsTheSet(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("m_vec_total", "", "k", 1)
	changes := []struct {
		name   string
		change func()
		want   string // a series that must be there afterwards
		gone   string // and one that must not
	}{
		{"Counter", func() { r.Counter("z_total", "") }, "z_total", ""},
		{"Gauge", func() { r.Gauge(`a_level{k="v"}`, "") }, `a_level{k="v"}`, ""},
		{"Histogram", func() { r.Histogram("m_seconds", "", nil) }, "m_seconds", ""},
		{"CounterFunc", func() { r.CounterFunc("b_total", "", func() float64 { return 1 }) }, "b_total", ""},
		{"GaugeFunc", func() { r.GaugeFunc("a_level", "", func() float64 { return 1 }) }, "a_level", ""},
		{"vec child", func() { vec.With("x").Add(1) }, `m_vec_total{k="x"}`, ""},
		{"vec demotion", func() { vec.With("y").Add(5) }, `m_vec_total{k="y"}`, `m_vec_total{k="x"}`},
		// A demotion comes with a promotion, which registers; on its own:
		{"unregister", func() { r.unregister("z_total") }, "b_total", "z_total"},
	}
	for _, c := range changes {
		snapshotNames(r)
		c.change()
		got := snapshotNames(r)
		if want := expositionOrder(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: order %v, want %v", c.name, got, want)
		}
		has := map[string]bool{}
		for _, n := range got {
			if has[n] {
				t.Fatalf("after %s: %s listed twice", c.name, n)
			}
			has[n] = true
		}
		if !has[c.want] || has[c.gone] {
			t.Fatalf("after %s: %v; want %q in and %q out", c.name, got, c.want, c.gone)
		}
	}
}

// TestSnapshotWhileTheSetChanges: readers share the kept order, so under
// -race one goroutine registers series and churns a vec's top-K (children
// materialized and demoted on every rebalance) while two others snapshot and
// render; every snapshot is still in exposition order without a repeat.
func TestSnapshotWhileTheSetChanges(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("churn_total", "", "k", 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := snapshotNames(r)
				if want := expositionOrder(got); !reflect.DeepEqual(got, want) {
					t.Errorf("snapshot out of order: %v", got)
					return
				}
				for i := 1; i < len(got); i++ {
					if got[i] == got[i-1] {
						t.Errorf("snapshot lists %s twice", got[i])
						return
					}
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		// Each new child out-counts the last, so the next rebalance promotes
		// it and demotes an incumbent.
		vec.With(fmt.Sprintf("c%03d", i)).Add(i + 1)
		r.Counter(fmt.Sprintf("plain_%03d_total", i), "")
		r.GaugeFunc("level", "", func() float64 { return float64(i) })
		r.Snapshot()
	}
	close(stop)
	wg.Wait()
	if v := r.Counter(RolledUpMetric, "").Value(); v < 100 {
		t.Fatalf("%d demotions: the vec did not churn", v)
	}
}
