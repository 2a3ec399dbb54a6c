package web

import (
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestTracesLimitNewestFirst(t *testing.T) {
	srv, inf := newTestServer(t)
	ids := inf.Tracer.IDs() // oldest first
	if len(ids) < 2 {
		t.Fatalf("need >= 2 traces, have %d", len(ids))
	}

	out := getJSON(t, srv.URL+"/api/traces?limit=1", http.StatusOK)
	if out["count"].(float64) != 1 {
		t.Fatalf("count = %v", out["count"])
	}
	if int(out["total"].(float64)) != len(ids) {
		t.Fatalf("total = %v, want %d", out["total"], len(ids))
	}
	got := out["traces"].([]any)
	if got[0].(string) != ids[len(ids)-1] {
		t.Fatalf("limit=1 returned %v, want the newest trace %s", got[0], ids[len(ids)-1])
	}

	// A limit beyond the retained count returns everything.
	out = getJSON(t, srv.URL+"/api/traces?limit=100000", http.StatusOK)
	if int(out["count"].(float64)) != len(ids) {
		t.Fatalf("over-limit count = %v", out["count"])
	}

	getJSON(t, srv.URL+"/api/traces?limit=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/traces?limit=junk", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/traces?limit=-3", http.StatusBadRequest)
}

func TestEventsEndpoint(t *testing.T) {
	srv, inf := newTestServer(t)
	inf.Events.Log(telemetry.LevelWarn, "breaker", "trace-9", "circuit breaker opened")
	inf.Events.Log(telemetry.LevelInfo, "healer", "", "repaired 2 replicas")

	out := getJSON(t, srv.URL+"/api/events?limit=2", http.StatusOK)
	if out["count"].(float64) != 2 {
		t.Fatalf("count = %v", out["count"])
	}
	if out["total"].(float64) < 2 {
		t.Fatalf("total = %v", out["total"])
	}
	evs := out["events"].([]any)
	// Newest first.
	first := evs[0].(map[string]any)
	second := evs[1].(map[string]any)
	if first["component"] != "healer" || second["component"] != "breaker" {
		t.Fatalf("event order = %v, %v", first, second)
	}
	if second["traceId"] != "trace-9" {
		t.Fatalf("trace id lost: %v", second)
	}

	getJSON(t, srv.URL+"/api/events?limit=nope", http.StatusBadRequest)
}

func TestSLOEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/api/slo", http.StatusOK)
	if out["count"].(float64) != 2 {
		t.Fatalf("slo count = %v", out["count"])
	}
	names := make(map[string]bool)
	for _, raw := range out["slos"].([]any) {
		rep := raw.(map[string]any)
		names[rep["name"].(string)] = true
		if rep["objective"].(float64) <= 0 {
			t.Fatalf("objective = %v", rep)
		}
	}
	if !names["ingest-delivery"] || !names["ingest-latency-1s"] {
		t.Fatalf("objectives = %v", names)
	}
}

func TestRuntimeMetricsAndExemplarsExposed(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, family := range []string{
		"cityinfra_go_goroutines",
		"cityinfra_go_heap_alloc_bytes",
		"cityinfra_go_gc_pause_p99_seconds",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing runtime family %q", family)
		}
	}
	// The ingest histogram retained exemplars from the pipeline runs in
	// newTestServer; the exposition must link tail buckets to trace ids.
	if !strings.Contains(body, `# {trace_id="`) {
		t.Fatal("/metrics exposes no exemplar trailers")
	}
}

// The runtime gauges read live values from runtime/metrics.
func TestRuntimeGaugesReadTheRuntime(t *testing.T) {
	_, inf := newTestServer(t)
	runtime.GC()
	got := map[string]float64{}
	for _, p := range inf.Telemetry.Snapshot() {
		got[p.Name] = p.Value
	}
	if v := got["cityinfra_go_goroutines"]; v < 1 {
		t.Errorf("goroutines = %v", v)
	}
	if v := got["cityinfra_go_heap_alloc_bytes"]; v < 1<<10 {
		t.Errorf("heap bytes = %v", v)
	}
	if v := got["cityinfra_go_gc_pause_p99_seconds"]; !(v > 0 && v < 10) {
		t.Errorf("gc pause p99 = %v after a forced GC", v)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 90, 9, 1},
		Buckets: []float64{math.Inf(-1), 1, 2, 3, math.Inf(1)},
	}
	for _, c := range []struct{ q, want float64 }{{0, 2}, {0.5, 2}, {0.9, 2}, {0.91, 3}, {0.99, 3}, {1, 3}} {
		if got := histogramQuantile(h, c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := histogramQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.99); got != 0 {
		t.Errorf("empty histogram q99 = %v", got)
	}
}

// The exemplar printed on /metrics must resolve through /api/trace/{id} — the
// dashboard's drill-down path from a tail bucket to a causal tree.
func TestExemplarResolvesToTrace(t *testing.T) {
	srv, inf := newTestServer(t)
	var exemplar string
	for _, p := range inf.Telemetry.Snapshot() {
		if p.Name == "cityinfra_pipeline_ingest_seconds" {
			exemplar = p.ExemplarTrace
		}
	}
	if exemplar == "" {
		t.Fatal("ingest histogram retained no exemplar")
	}
	tr := getJSON(t, srv.URL+"/api/trace/"+exemplar, http.StatusOK)
	if tr["trace"].(map[string]any)["id"] != exemplar {
		t.Fatalf("exemplar trace = %v", tr["trace"])
	}
}
