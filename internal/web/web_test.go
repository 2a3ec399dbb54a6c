package web

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/geo"
)

func newTestServer(t *testing.T) (*httptest.Server, *core.Infrastructure) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cameras = 30
	cfg.Gang.Members = 100
	cfg.Gang.Groups = 10
	inf, err := core.New(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(cfg.Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := citydata.DefaultTweetConfig(cfg.Epoch)
	tcfg.Count = 300
	tweets, err := citydata.GenerateTweets(tcfg, incidents, inf.Gang, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inf.IngestTweets(tweets); err != nil {
		t.Fatal(err)
	}
	if _, err := inf.IngestCrimes(incidents, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(inf))
	t.Cleanup(srv.Close)
	return srv, inf
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealthEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/api/health", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("health = %v", out)
	}
	if out["camerasDeployed"].(float64) != 30 {
		t.Fatalf("cameras = %v", out["camerasDeployed"])
	}
}

func TestInventoryEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/api/inventory")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var layers []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&layers); err != nil {
		t.Fatal(err)
	}
	if len(layers) != 4 {
		t.Fatalf("layers = %d", len(layers))
	}
}

func TestTweetsNearEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	url := srv.URL + "/api/tweets/near?lat=30.4515&lon=-91.1871&radiusKm=50"
	out := getJSON(t, url, http.StatusOK)
	if out["count"].(float64) == 0 {
		t.Fatal("no tweets near Baton Rouge")
	}
	// Parameter validation.
	getJSON(t, srv.URL+"/api/tweets/near?lat=abc&lon=-91&radiusKm=5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/tweets/near?lat=30&lon=-91", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/tweets/near?lat=99&lon=-91&radiusKm=5", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/tweets/near?lat=30&lon=-91&radiusKm=5&fromUnix=zzz", http.StatusBadRequest)
}

// TestTweetsNearIsAnsweredFromTheGeoIndex: the route's cost is the cells its
// radius touches, not the collection. A full scan on the way would count.
func TestTweetsNearIsAnsweredFromTheGeoIndex(t *testing.T) {
	srv, inf := newTestServer(t)
	tweets := inf.DocDB.Collection("tweets")
	before := tweets.Planner()
	out := getJSON(t, srv.URL+"/api/tweets/near?lat=30.4515&lon=-91.1871&radiusKm=50", http.StatusOK)
	after := tweets.Planner()
	if after.FullScans != before.FullScans || after.IndexedScans != before.IndexedScans+1 {
		t.Fatalf("planner %+v → %+v across /api/tweets/near, want one indexed scan and no full scan", before, after)
	}
	// The index narrows and the documents decide: the count is still the
	// brute-force one.
	all, err := tweets.Find(docstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range all {
		if p, ok := d["loc"].(geo.Point); ok && geo.HaversineKm(geo.Point{Lat: 30.4515, Lon: -91.1871}, p) <= 50 {
			want++
		}
	}
	if got := int(out["count"].(float64)); got != want || want == 0 {
		t.Fatalf("count = %d, brute force over %d tweets = %d", got, len(all), want)
	}
}

func TestCrimesDistrictEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	total := 0
	for d := 1; d <= 12; d++ {
		out := getJSON(t, fmt.Sprintf("%s/api/crimes/district/%d", srv.URL, d), http.StatusOK)
		total += int(out["count"].(float64))
	}
	if total != 300 {
		t.Fatalf("district totals = %d", total)
	}
	getJSON(t, srv.URL+"/api/crimes/district/zero", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/crimes/district/0", http.StatusBadRequest)
}

func TestCamerasNearEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/api/cameras/near?lat=30.4515&lon=-91.1871&radiusKm=100", http.StatusOK)
	if out["count"].(float64) == 0 {
		t.Fatal("no cameras near Baton Rouge")
	}
}

func TestAlertsEndpoint(t *testing.T) {
	srv, inf := newTestServer(t)
	// Inject alerts straight onto the topic.
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"cameraId":"cam-%d","clipId":%d,"action":"fight","exit":"local"}`, i, i)
		if _, _, err := inf.Broker.Produce("alerts", "cam", []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	out := getJSON(t, srv.URL+"/api/alerts", http.StatusOK)
	if out["count"].(float64) != 3 {
		t.Fatalf("alerts = %v", out["count"])
	}
	// Second read drains nothing (consumer group committed).
	out2 := getJSON(t, srv.URL+"/api/alerts", http.StatusOK)
	if out2["count"].(float64) != 0 {
		t.Fatalf("alerts re-read = %v", out2["count"])
	}
	getJSON(t, srv.URL+"/api/alerts?max=junk", http.StatusBadRequest)
}

func TestUnknownRouteIs404(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/api/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	// The scrape must cover every instrumented subsystem: broker, flume,
	// hdfs, hbase, retry/breaker, and the pipeline itself.
	for _, family := range []string{
		"cityinfra_broker_produce_total",
		"cityinfra_flume_events_delivered_total",
		"cityinfra_hdfs_live_datanodes",
		"cityinfra_hbase_flushes_total",
		"cityinfra_retry_retries_total",
		"cityinfra_breaker_state",
		"cityinfra_pipeline_ingest_seconds",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing %q:\n%s", family, body)
		}
	}
	if !strings.Contains(body, "# TYPE cityinfra_pipeline_ingest_seconds histogram") {
		t.Fatal("/metrics missing histogram TYPE line")
	}
}

func TestTraceEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/api/traces", http.StatusOK)
	if out["count"].(float64) < 1 {
		t.Fatalf("traces = %v", out)
	}
	ids := out["traces"].([]any)
	id := ids[len(ids)-1].(string)

	tr := getJSON(t, srv.URL+"/api/trace/"+id, http.StatusOK)
	trace := tr["trace"].(map[string]any)
	if trace["id"] != id {
		t.Fatalf("trace id = %v, want %s", trace["id"], id)
	}
	if len(trace["spans"].([]any)) < 2 {
		t.Fatalf("trace has %d spans, want root + stages", len(trace["spans"].([]any)))
	}
	if len(tr["breakdown"].([]any)) < 1 {
		t.Fatalf("breakdown = %v", tr["breakdown"])
	}

	getJSON(t, srv.URL+"/api/trace/nope", http.StatusNotFound)
}

func TestClusterEndpoint(t *testing.T) {
	srv, inf := newTestServer(t)
	out := getJSON(t, srv.URL+"/api/cluster", http.StatusOK)

	nodes := out["nodes"].([]any)
	if len(nodes) != inf.Broker.NodeCount() {
		t.Fatalf("nodes = %d, want %d", len(nodes), inf.Broker.NodeCount())
	}
	for _, n := range nodes {
		if !n.(map[string]any)["up"].(bool) {
			t.Fatalf("healthy boot reports a down node: %v", n)
		}
	}
	parts := out["partitions"].([]any)
	if len(parts) == 0 {
		t.Fatal("no partitions reported")
	}
	p0 := parts[0].(map[string]any)
	if p0["leader"].(float64) < 0 || p0["epoch"].(float64) < 1 {
		t.Fatalf("partition state = %v", p0)
	}
	if len(p0["isr"].([]any)) != len(p0["replicas"].([]any)) {
		t.Fatalf("healthy boot is under-replicated: %v", p0)
	}
	if out["underReplicated"].(float64) != 0 || out["leaderless"].(float64) != 0 {
		t.Fatalf("healthy boot degraded: %v", out)
	}

	// Crash a leader: the endpoint must show the leaderless partition, and
	// after one monitor tick the re-election with a bumped epoch.
	victim := int(p0["leader"].(float64))
	if err := inf.Broker.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	out = getJSON(t, srv.URL+"/api/cluster", http.StatusOK)
	if out["leaderless"].(float64) < 1 {
		t.Fatalf("crash not visible: %v", out["leaderless"])
	}
	inf.MonitorTick()
	out = getJSON(t, srv.URL+"/api/cluster", http.StatusOK)
	if out["leaderless"].(float64) != 0 {
		t.Fatalf("election did not complete in one tick: %v", out["leaderless"])
	}
	if out["stats"].(map[string]any)["Elections"].(float64) < 1 {
		t.Fatalf("stats = %v", out["stats"])
	}
}
