package web

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// camFrames builds one confident frame per listed camera so each ingests,
// delivers, and exits locally (no offload archive needed).
func camFrames(cams []string, seq int) []core.FrameEvent {
	out := make([]core.FrameEvent, 0, len(cams))
	for _, id := range cams {
		out = append(out, core.FrameEvent{
			CameraID: id, Seq: seq, Class: "vehicle", Confidence: 0.95,
			RawBytes: 1 << 10, FeatureBytes: 256, Priority: 1,
		})
	}
	return out
}

// TestQueryLabelSelectors drives per-camera frame traffic and exercises the
// label-aware query path end to end: an exact selector answers with a single
// value, a bare vec family fans out into a vector, and sum by (camera)
// groups it back — all through GET /api/query.
func TestQueryLabelSelectors(t *testing.T) {
	srv, inf := newTestServer(t)
	cams := []string{"cam-1", "cam-2", "cam-3"}
	for seq := 1; seq <= 4; seq++ {
		if _, err := inf.IngestFrames(camFrames(cams, seq), ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		inf.MonitorTick()
	}

	// Exact selector: single-valued, so the historical one-object shape.
	sel := `cityinfra_camera_frames_ingested_total{camera="cam-2"}`
	out := getJSON(t, srv.URL+"/api/query?expr="+url.QueryEscape(sel), http.StatusOK)
	if out["value"].(float64) != 4 {
		t.Fatalf("selector value = %v, want 4", out["value"])
	}
	if out["labels"].(map[string]any)["camera"] != "cam-2" {
		t.Fatalf("selector labels = %v", out["labels"])
	}

	// Bare vec family matches every child plus the always-materialized
	// {~other} rollup (zero while nothing has been demoted): vector shape
	// with one value per series.
	out = getJSON(t, srv.URL+"/api/query?expr=cityinfra_camera_frames_ingested_total", http.StatusOK)
	if int(out["count"].(float64)) != len(cams)+1 {
		t.Fatalf("vector count = %v, want %d", out["count"], len(cams)+1)
	}
	seen := map[string]float64{}
	for _, v := range out["values"].([]any) {
		row := v.(map[string]any)
		seen[row["labels"].(map[string]any)["camera"].(string)] = row["value"].(float64)
	}
	for _, id := range cams {
		if seen[id] != 4 {
			t.Fatalf("camera %s vector value = %v, want 4 (%v)", id, seen[id], seen)
		}
	}
	if other, ok := seen["~other"]; !ok || other != 0 {
		t.Fatalf("rollup series = %v, %v; want present at 0", other, ok)
	}

	// Grouped aggregation keeps one value per camera (and the rollup group);
	// ungrouped sum folds the whole fleet into a single value.
	out = getJSON(t, srv.URL+"/api/query?expr="+url.QueryEscape(
		"sum by (camera) (cityinfra_camera_frames_ingested_total)"), http.StatusOK)
	if int(out["count"].(float64)) != len(cams)+1 {
		t.Fatalf("sum by count = %v, want %d", out["count"], len(cams)+1)
	}
	out = getJSON(t, srv.URL+"/api/query?expr="+url.QueryEscape(
		"sum(cityinfra_camera_frames_ingested_total)"), http.StatusOK)
	if out["value"].(float64) != float64(4*len(cams)) {
		t.Fatalf("sum value = %v, want %d", out["value"], 4*len(cams))
	}

	// A well-formed selector that matches nothing is a 404, same taxonomy
	// as an unknown bare series.
	getJSON(t, srv.URL+"/api/query?expr="+url.QueryEscape(
		`cityinfra_camera_frames_ingested_total{camera="cam-999"}`), http.StatusNotFound)
}

// TestQueryMalformedSelectors pins the 400 taxonomy for label-matcher syntax
// errors: every malformed selector must be rejected as a bad request, never
// confused with a missing series (404) or silently matched as a bare name.
func TestQueryMalformedSelectors(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct {
		name string
		expr string
	}{
		{"unclosed brace", `cityinfra_camera_frames_ingested_total{camera="cam-1"`},
		{"empty matcher block", `cityinfra_camera_frames_ingested_total{}`},
		{"missing value", `cityinfra_camera_frames_ingested_total{camera=}`},
		{"unquoted value", `cityinfra_camera_frames_ingested_total{camera=cam-1}`},
		{"bad escape", `cityinfra_camera_frames_ingested_total{camera="a\q"}`},
		{"unterminated value", `cityinfra_camera_frames_ingested_total{camera="cam-1}`},
		{"bad label name", `cityinfra_camera_frames_ingested_total{9camera="x"}`},
		{"trailing comma", `cityinfra_camera_frames_ingested_total{camera="x",}`},
		{"selector inside rate unclosed", `rate(cityinfra_camera_frames_ingested_total{camera="x"[15s])`},
		{"empty by clause", `sum by () (cityinfra_camera_frames_ingested_total)`},
		{"two by labels", `sum by (camera, tier) (cityinfra_camera_frames_ingested_total)`},
		{"unclosed by clause", `sum by (camera (cityinfra_camera_frames_ingested_total)`},
		{"NaN quantile", `quantile_over_time(NaN, cityinfra_broker_produce_total[1m])`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := getJSON(t, srv.URL+"/api/query?expr="+url.QueryEscape(tc.expr), http.StatusBadRequest)
			if out["error"] == "" {
				t.Fatalf("400 body carries no error: %v", out)
			}
		})
	}
}

// TestCamerasEndpoint exercises the fleet table: per-camera rows with exact
// counts, the cardinality summary, burn-ordered ranking, and the parameter
// taxonomy (bad sort and limit are 400s; a fleet-disabled stack is a 404).
func TestCamerasEndpoint(t *testing.T) {
	srv, inf := newTestServer(t)
	cams := []string{"cam-4", "cam-5"}
	for seq := 1; seq <= 3; seq++ {
		if _, err := inf.IngestFrames(camFrames(cams, seq), ""); err != nil {
			t.Fatal(err)
		}
	}
	inf.MonitorTick()

	out := getJSON(t, srv.URL+"/api/cameras", http.StatusOK)
	if int(out["total"].(float64)) != len(cams) {
		t.Fatalf("total = %v, want %d", out["total"], len(cams))
	}
	rows := out["cameras"].([]any)
	if len(rows) != len(cams) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cams))
	}
	for i, want := range cams { // id-sorted
		row := rows[i].(map[string]any)
		if row["camera"] != want {
			t.Fatalf("row %d camera = %v, want %s", i, row["camera"], want)
		}
		if row["ingested"].(float64) != 3 || row["delivered"].(float64) != 3 {
			t.Fatalf("row %v counts wrong", row)
		}
	}
	summary := out["summary"].(map[string]any)
	maxSeries := summary["maxSeries"].(float64)
	if maxSeries <= 0 {
		t.Fatalf("summary maxSeries = %v", maxSeries)
	}
	for fam, n := range summary["seriesPerFamily"].(map[string]any) {
		if n.(float64) > maxSeries+1 {
			t.Fatalf("family %s exposes %v series, want <= K+1 = %v", fam, n, maxSeries+1)
		}
	}

	// Healthy fleet: nothing is burning, so the burn ranking is empty.
	out = getJSON(t, srv.URL+"/api/cameras?sort=burn", http.StatusOK)
	if int(out["total"].(float64)) != 0 {
		t.Fatalf("burn ranking on a healthy fleet = %v", out)
	}

	// ?limit caps rows, total keeps the uncapped count.
	out = getJSON(t, srv.URL+"/api/cameras?limit=1", http.StatusOK)
	if len(out["cameras"].([]any)) != 1 || int(out["total"].(float64)) != len(cams) {
		t.Fatalf("limited table = %v", out)
	}

	// Three burning cameras: ?sort=burn&limit=1 caps the rows, and total
	// still counts every burning camera.
	inf.EnableChaos(faults.NewInjector(faults.Config{
		Seed: 99, BlackoutEvery: 1, BlackoutLen: 1, TargetOps: []string{"hbase."},
	}))
	burning := []string{"cam-6", "cam-7", "cam-8"}
	if _, err := inf.IngestFrames(camFrames(burning, 1), ""); err != nil {
		t.Fatal(err)
	}
	inf.DisableChaos()
	inf.MonitorTick()
	out = getJSON(t, srv.URL+"/api/cameras?sort=burn&limit=1", http.StatusOK)
	if int(out["count"].(float64)) != 1 || int(out["total"].(float64)) != len(burning) {
		t.Fatalf("burn ranking with limit=1: count %v total %v, want 1 and %d", out["count"], out["total"], len(burning))
	}

	getJSON(t, srv.URL+"/api/cameras?sort=rate", http.StatusBadRequest)
	getJSON(t, srv.URL+"/api/cameras?limit=bogus", http.StatusBadRequest)
}

// TestFleetReadDuringIngest hammers per-camera frame ingest from several
// goroutines while monitor ticks scrape the registry and HTTP readers pull
// the fleet table and labeled queries — the lock-discipline proof for the
// dimensional path, meaningful under -race.
func TestFleetReadDuringIngest(t *testing.T) {
	srv, inf := newTestServer(t)
	// Seed one camera so the query path always has a series to resolve.
	if _, err := inf.IngestFrames(camFrames([]string{"cam-0"}, 1), ""); err != nil {
		t.Fatal(err)
	}
	inf.MonitorTick()

	const writers, frames = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("cam-%d", w)
			for seq := 2; seq < 2+frames; seq++ {
				if _, err := inf.IngestFrames(camFrames([]string{id}, seq), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				inf.MonitorTick()
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, path := range []string{
					"/api/cameras",
					"/api/cameras?sort=burn",
					"/api/query?expr=" + url.QueryEscape(`cityinfra_camera_frames_ingested_total{camera="cam-0"}`),
					"/metrics",
				} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s = %d mid-ingest", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	// Writers and readers finish on their own; the ticker loops until then.
	wg.Wait()
	close(stop)
	<-tickerDone

	// Exact counts survived the concurrency: every writer's camera shows all
	// its frames in the fleet table.
	inf.MonitorTick()
	out := getJSON(t, srv.URL+"/api/cameras", http.StatusOK)
	byID := map[string]map[string]any{}
	for _, r := range out["cameras"].([]any) {
		row := r.(map[string]any)
		byID[row["camera"].(string)] = row
	}
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("cam-%d", w)
		want := float64(frames)
		if w == 0 {
			want++ // the seeding frame
		}
		if row, ok := byID[id]; !ok || row["ingested"].(float64) != want {
			t.Fatalf("camera %s ingested = %v, want %v", id, byID[id], want)
		}
	}
}
