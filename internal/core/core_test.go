package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/geo"
)

// smallConfig shrinks the deployment for fast tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cameras = 30
	cfg.Gang.Members = 150
	cfg.Gang.Groups = 10
	return cfg
}

func bootSmall(t *testing.T) *Infrastructure {
	t.Helper()
	inf, err := New(smallConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

func TestBootAndInventory(t *testing.T) {
	inf := bootSmall(t)
	inv := inf.Inventory()
	if len(inv) != 4 {
		t.Fatalf("layers = %d", len(inv))
	}
	wantLayers := []string{"data", "hardware", "software", "application"}
	for i, layer := range inv {
		if layer.Layer != wantLayers[i] {
			t.Fatalf("layer %d = %s", i, layer.Layer)
		}
		if len(layer.Components) == 0 {
			t.Fatalf("layer %s empty", layer.Layer)
		}
	}
}

func TestBootValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataNodes = 1 // < replication
	if _, err := New(cfg, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.Cameras = 2
	if _, err := New(cfg, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("camera err = %v", err)
	}
}

func TestTweetPipelineEndToEnd(t *testing.T) {
	inf := bootSmall(t)
	rng := rand.New(rand.NewSource(2))
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(inf.Config().Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := citydata.DefaultTweetConfig(inf.Config().Epoch)
	cfg.Count = 500
	tweets, err := citydata.GenerateTweets(cfg, incidents, inf.Gang, rng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := inf.IngestTweets(tweets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collected != 500 || stats.Streamed != 500 || stats.Stored != 500 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if inf.DocDB.Collection("tweets").Count() != 500 {
		t.Fatalf("docstore count = %d", inf.DocDB.Collection("tweets").Count())
	}
	// Geo-time query returns something near Baton Rouge over the window.
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	docs, err := inf.TweetsNear(br, 50, inf.Config().Epoch.Add(-24*time.Hour), inf.Config().Epoch.Add(40*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("geo-time query found nothing")
	}
}

func TestCrimeIngestAndDistrictScan(t *testing.T) {
	inf := bootSmall(t)
	rng := rand.New(rand.NewSource(3))
	cfg := citydata.DefaultCrimeConfig(inf.Config().Epoch)
	cfg.Count = 100
	incidents, err := citydata.GenerateCrimes(cfg, inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := inf.IngestCrimes(incidents, "/warehouse/crimes/2018-03.json")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collected != 100 || stats.Stored == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !inf.HDFS.Exists("/warehouse/crimes/2018-03.json") {
		t.Fatal("archive missing from HDFS")
	}
	total := 0
	for d := 1; d <= cfg.Districts; d++ {
		rows, err := inf.CrimesInDistrict(d)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != 100 {
		t.Fatalf("district scans found %d incidents", total)
	}
	// A district nobody reported in is an empty list, not nil (JSON [] on
	// /api/crimes/district/{id}).
	if rows, err := inf.CrimesInDistrict(cfg.Districts + 1); err != nil || rows == nil || len(rows) != 0 {
		t.Fatalf("empty district = %#v, %v; want []string{}", rows, err)
	}
}

// TestDistrictPrefixIsZeroPadded: the row-key prefix is "d%02d|" for every
// district, negative and three-digit ones included.
func TestDistrictPrefixIsZeroPadded(t *testing.T) {
	for d := -120; d <= 120; d++ {
		if got, want := districtPrefix(d), fmt.Sprintf("d%02d|", d); got != want {
			t.Fatalf("districtPrefix(%d) = %q, want %q", d, got, want)
		}
	}
}

func TestWazeAnd911Ingest(t *testing.T) {
	inf := bootSmall(t)
	rng := rand.New(rand.NewSource(4))
	reports, err := citydata.GenerateWaze(80, inf.Cameras, inf.Config().Epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := inf.IngestWaze(reports)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Stored != 80 {
		t.Fatalf("waze stats = %+v", ws)
	}
	calls, err := citydata.Generate911(50, inf.Config().Epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := inf.Ingest911(calls)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Stored != 50 {
		t.Fatalf("911 stats = %+v", cs)
	}
}

func TestNarrowPersonsOfInterestFunnel(t *testing.T) {
	inf := bootSmall(t)
	rng := rand.New(rand.NewSource(7))
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(inf.Config().Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := citydata.DefaultTweetConfig(inf.Config().Epoch)
	tcfg.Count = 3000
	tcfg.CrimeFraction = 0.3
	tweets, err := citydata.GenerateTweets(tcfg, incidents, inf.Gang, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inf.IngestTweets(tweets); err != nil {
		t.Fatal(err)
	}
	// Pick an incident with at least one gang-member suspect.
	var target citydata.Incident
	foundTarget := false
	for _, inc := range incidents {
		for _, p := range inc.Persons {
			if p.Role == "suspect" {
				if _, err := inf.Gang.Degree(p.ID); err == nil {
					target = inc
					foundTarget = true
				}
			}
		}
		if foundTarget {
			break
		}
	}
	if !foundTarget {
		t.Fatal("no gang-linked incident generated")
	}
	funnel, err := inf.NarrowPersonsOfInterest(target, DefaultNarrowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(funnel.Suspects) == 0 {
		t.Fatal("no member suspects in funnel")
	}
	if funnel.FieldSize == 0 {
		t.Fatalf("funnel = %+v", funnel)
	}
	// The narrowed set must be a subset of the field.
	if len(funnel.PersonsOfInterest) > funnel.FieldSize {
		t.Fatalf("narrowed %d > field %d", len(funnel.PersonsOfInterest), funnel.FieldSize)
	}
	t.Logf("funnel: suspects=%d field=%d tweets=%d narrowed=%d",
		len(funnel.Suspects), funnel.FieldSize, funnel.GeoTimeTweets, len(funnel.PersonsOfInterest))
}
