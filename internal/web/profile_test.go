package web

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/citydata"
)

func TestProfileEndpoint(t *testing.T) {
	srv, inf := newTestServer(t)
	// Close one attribution window so the hot ranking is populated.
	inf.MonitorTick()

	out := getJSON(t, srv.URL+"/api/profile", http.StatusOK)
	if out["total"].(float64) < 10 {
		t.Fatalf("total regions = %v, want the full instrumented set", out["total"])
	}
	if out["ticks"].(float64) != 1 {
		t.Fatalf("ticks = %v", out["ticks"])
	}
	regions := out["regions"].([]any)
	if len(regions) == 0 {
		t.Fatal("no regions")
	}
	// Default sort is self-seconds descending.
	first := regions[0].(map[string]any)
	second := regions[1].(map[string]any)
	if first["selfSeconds"].(float64) < second["selfSeconds"].(float64) {
		t.Fatalf("not sorted by self: %v then %v", first, second)
	}
	for _, key := range []string{"region", "calls", "cumSeconds", "selfSeconds", "allocBytes", "allocsPerOp"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("region row missing %q: %v", key, first)
		}
	}
	// The ingest root did real work during boot-time ingestion.
	byName := map[string]map[string]any{}
	for _, r := range regions {
		row := r.(map[string]any)
		byName[row["region"].(string)] = row
	}
	if ing, ok := byName["ingest"]; !ok || ing["calls"].(float64) == 0 {
		t.Fatalf("ingest region absent or idle: %v", byName["ingest"])
	}

	// The hot ranking mirrors the last tick's window.
	hot := out["hot"].([]any)
	if len(hot) == 0 {
		t.Fatal("no hot regions after a tick with ingest traffic")
	}
}

func TestProfileEndpointSortAndLimit(t *testing.T) {
	srv, _ := newTestServer(t)

	limited := getJSON(t, srv.URL+"/api/profile?limit=3", http.StatusOK)
	if n := len(limited["regions"].([]any)); n != 3 {
		t.Fatalf("limited regions = %d, want 3", n)
	}
	if limited["total"].(float64) < 4 {
		t.Fatalf("total = %v, want > limit", limited["total"])
	}

	byCum := getJSON(t, srv.URL+"/api/profile?sort=cum", http.StatusOK)
	regions := byCum["regions"].([]any)
	for i := 1; i < len(regions); i++ {
		prev := regions[i-1].(map[string]any)["cumSeconds"].(float64)
		cur := regions[i].(map[string]any)["cumSeconds"].(float64)
		if cur > prev {
			t.Fatalf("sort=cum out of order at %d: %v > %v", i, cur, prev)
		}
	}
	byAllocs := getJSON(t, srv.URL+"/api/profile?sort=allocs", http.StatusOK)
	if byAllocs["sort"] != "allocs" {
		t.Fatalf("sort echo = %v", byAllocs["sort"])
	}

	// Parameter validation, mirroring /api/traces.
	for _, bad := range []string{
		"/api/profile?limit=0",
		"/api/profile?limit=-2",
		"/api/profile?limit=abc",
		"/api/profile?sort=wall",
		"/api/profile?sort=SELF",
	} {
		out := getJSON(t, srv.URL+bad, http.StatusBadRequest)
		if out["error"] == "" {
			t.Fatalf("%s: no error body", bad)
		}
	}
}

func TestProfileFlameEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/api/profile/flame", http.StatusOK)
	roots := out["roots"].([]any)
	if len(roots) == 0 {
		t.Fatal("no flame roots")
	}
	if out["nodes"].(float64) < float64(len(roots)) {
		t.Fatalf("nodes = %v < roots = %d", out["nodes"], len(roots))
	}
	// The broker root must exist and nest append above replicate — the
	// region-tree shape the flame view renders.
	var broker map[string]any
	for _, r := range roots {
		if node := r.(map[string]any); node["path"] == "broker" {
			broker = node
		}
	}
	if broker == nil {
		t.Fatalf("no broker root in %v", roots)
	}
	// Children are looked up by path: siblings are ordered by wall time,
	// which differs run to run (broker/poll can outrun broker/append).
	child := func(node map[string]any, path string) map[string]any {
		for _, c := range node["children"].([]any) {
			if c := c.(map[string]any); c["path"] == path {
				return c
			}
		}
		t.Fatalf("%v has no child %s in %v", node["path"], path, node["children"])
		return nil
	}
	child(child(broker, "broker/append"), "broker/append/replicate")
}

// Profile reads must be safe while ingest traffic is recording spans — the
// race detector drives this test's value.
func TestProfileReadDuringIngest(t *testing.T) {
	srv, inf := newTestServer(t)
	tcfg := citydata.DefaultTweetConfig(inf.Config().Epoch)
	tcfg.Count = 50
	rngTweets, err := citydata.GenerateTweets(tcfg, nil, inf.Gang, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := inf.IngestTweets(rngTweets); err != nil {
				panic(fmt.Sprintf("ingest during profile reads: %v", err))
			}
			inf.MonitorTick()
		}
	}()
	for i := 0; i < 10; i++ {
		getJSON(t, srv.URL+"/api/profile", http.StatusOK)
		getJSON(t, srv.URL+"/api/profile/flame", http.StatusOK)
	}
	wg.Wait()
}
