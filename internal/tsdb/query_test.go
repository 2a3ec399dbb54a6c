package tsdb

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// seedCounter scrapes a counter through the given cumulative values, one
// scrape per step seconds.
func seedCounter(t *testing.T, values []float64, step time.Duration) (*Store, *manualNow) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var last float64
	cur := &last
	reg.CounterFunc("c_total", "c", func() float64 { return *cur })
	st, clk := newTestStore(reg, 64)
	for i, v := range values {
		last = v
		st.Scrape()
		if i < len(values)-1 {
			clk.advance(step)
		}
	}
	return st, clk
}

func TestParseExprErrors(t *testing.T) {
	for _, expr := range []string{
		"", "rate(x)", "rate(x[)", "rate(x[0s])", "rate(x[-5s])", "nope(x[5s])",
		"quantile_over_time(x[5s])", "quantile_over_time(1.5, x[5s])",
		"rate(x[5s]", "bad name", "rate([5s])",
	} {
		if _, err := parseExpr(expr); !errors.Is(err, ErrBadExpr) {
			t.Fatalf("parseExpr(%q) err = %v, want ErrBadExpr", expr, err)
		}
	}
	q, err := parseExpr(" quantile_over_time( 0.9 , lat_p99[90s] ) ")
	if err != nil {
		t.Fatal(err)
	}
	if q.fn != "quantile_over_time" || q.series != "lat_p99" || q.window != 90*time.Second || q.q != 0.9 {
		t.Fatalf("parsed = %+v", q)
	}
	q, err = parseExpr(`rate(wal_total{table="crimes"}[2m])`)
	if err != nil {
		t.Fatal(err)
	}
	if q.series != `wal_total{table="crimes"}` || q.window != 2*time.Minute {
		t.Fatalf("parsed = %+v", q)
	}
}

func TestRateAndDelta(t *testing.T) {
	st, clk := seedCounter(t, []float64{0, 10, 30, 60}, 10*time.Second)
	v, err := st.Eval("rate(c_total[30s])", clk.t)
	if err != nil {
		t.Fatal(err)
	}
	// 60 increase over 30 s of sample span.
	if math.Abs(v.Value-2.0) > 1e-12 || v.Samples != 4 {
		t.Fatalf("rate = %+v", v)
	}
	d, err := st.Eval("delta(c_total[20s])", clk.t)
	if err != nil {
		t.Fatal(err)
	}
	if d.Value != 50 || d.Samples != 3 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestRateHandlesCounterReset(t *testing.T) {
	st, clk := seedCounter(t, []float64{100, 120, 5, 25}, 10*time.Second)
	v, err := st.Eval("rate(c_total[30s])", clk.t)
	if err != nil {
		t.Fatal(err)
	}
	// Increases: 20, then a reset contributes the post-reset 5, then 20.
	want := 45.0 / 30.0
	if math.Abs(v.Value-want) > 1e-12 {
		t.Fatalf("rate with reset = %v, want %v", v.Value, want)
	}
}

func TestOverTimeFunctions(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("v", "v")
	st, clk := newTestStore(reg, 64)
	for _, x := range []float64{4, 1, 9, 6} {
		g.Set(x)
		st.Scrape()
		clk.advance(time.Second)
	}
	at := clk.t
	for expr, want := range map[string]float64{
		"avg_over_time(v[10s])":           5,
		"min_over_time(v[10s])":           1,
		"max_over_time(v[10s])":           9,
		"quantile_over_time(0.5, v[10s])": 5, // median of 1,4,6,9
		"quantile_over_time(1, v[10s])":   9,
		"quantile_over_time(0, v[10s])":   1,
	} {
		v, err := st.Eval(expr, at)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if math.Abs(v.Value-want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", expr, v.Value, want)
		}
	}
	// Instant lookup.
	v, err := st.Eval("v", at)
	if err != nil || v.Value != 6 || v.Func != "" {
		t.Fatalf("instant = %+v, %v", v, err)
	}
}

func TestEvalErrorTaxonomy(t *testing.T) {
	st, clk := seedCounter(t, []float64{1}, time.Second)
	if _, err := st.Eval("rate(missing[10s])", clk.t); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("err = %v", err)
	}
	// One sample is not enough for a rate.
	if _, err := st.Eval("rate(c_total[10s])", clk.t); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
	// ...but is enough for an over_time aggregate.
	if _, err := st.Eval("avg_over_time(c_total[10s])", clk.t); err != nil {
		t.Fatalf("err = %v", err)
	}
	// A window in the past with no samples.
	if _, err := st.Eval("avg_over_time(c_total[1s])", clk.t.Add(time.Hour)); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
	if _, err := st.Eval("rate(c_total[junk])", clk.t); !errors.Is(err, ErrBadExpr) {
		t.Fatalf("err = %v", err)
	}
}

// FuzzEvalTypedErrors: any expression, evaluated against a small scraped
// store (a counter, a gauge, a histogram and a two-child vec), yields values
// or one of the three errors /api/query maps to a status code. It never
// panics: the expression arrives from a remote client.
func FuzzEvalTypedErrors(f *testing.F) {
	for _, expr := range []string{
		"c_total", "g", "h_seconds_p99", `v_total{k="a"}`, "v_total",
		"rate(c_total[30s])", "delta(g[1m])", "avg_over_time(g[1m])",
		"min_over_time(h_seconds_count[1m])", "max_over_time(g[1m])",
		"quantile_over_time(0.9, g[1m])", "sum(rate(v_total[30s]))",
		"sum by (k) (rate(v_total[30s]))", "max by (k) (v_total)",
		"quantile_over_time(NaN, g[1m])", "quantile_over_time(nan, g[1m])",
	} {
		f.Add(expr)
	}
	reg := telemetry.NewRegistry()
	c := reg.Counter("c_total", "c")
	g := reg.Gauge("g", "g")
	h := reg.Histogram("h_seconds", "h", nil)
	vec := reg.CounterVec("v_total", "v", "k", 4)
	st, clk := newTestStore(reg, 16)
	for i := 1; i <= 4; i++ {
		c.Add(i)
		g.Set(float64(i * i))
		h.Observe(float64(i) / 100)
		vec.With("a").Add(i)
		vec.With("b").Add(2 * i)
		clk.advance(10 * time.Second)
		st.Scrape()
	}
	f.Fuzz(func(t *testing.T, expr string) {
		_, err := st.EvalAll(expr, clk.t)
		if err != nil && !errors.Is(err, ErrBadExpr) && !errors.Is(err, ErrUnknownSeries) && !errors.Is(err, ErrNoSamples) {
			t.Fatalf("EvalAll(%q) = %v, not a query error", expr, err)
		}
	})
}
