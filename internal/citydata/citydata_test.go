package citydata

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/nlp"
	"repro/internal/socialgraph"
)

var testStart = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

func TestCitiesMatchPaper(t *testing.T) {
	cities := Cities()
	if len(cities) != 9 {
		t.Fatalf("cities = %d, paper names 9", len(cities))
	}
	box := LouisianaBBox()
	names := make(map[string]bool)
	for _, c := range cities {
		if !box.Contains(c.Location) {
			t.Fatalf("%s at %+v outside Louisiana", c.Name, c.Location)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"Baton Rouge", "New Orleans", "Shreveport", "Houma", "Lafayette", "North Shore", "Lake Charles", "Monroe", "Alexandria"} {
		if !names[want] {
			t.Fatalf("missing city %s", want)
		}
	}
}

func TestCameraNetworkScaleAndPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cams, err := CameraNetwork(220, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cams) != 220 {
		t.Fatalf("cameras = %d", len(cams))
	}
	box := LouisianaBBox()
	ids := make(map[string]bool)
	corridors := make(map[string]int)
	for _, c := range cams {
		if ids[c.ID] {
			t.Fatalf("duplicate camera id %s", c.ID)
		}
		ids[c.ID] = true
		if !box.Contains(c.Location) {
			t.Fatalf("camera %s outside Louisiana: %+v", c.ID, c.Location)
		}
		corridors[c.Corridor]++
	}
	// The BR–NO I-10 corridor carries the largest share.
	if corridors["I-10 E"] < corridors["I-20"] {
		t.Fatalf("corridor shares: %v", corridors)
	}
	if _, err := CameraNetwork(2, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateCrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := socialgraph.Generate(socialgraph.GenConfig{Groups: 5, Members: 50, IntraDegree: 3, CrossDegree: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCrimeConfig(testStart)
	incidents, err := GenerateCrimes(cfg, g.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != cfg.Count {
		t.Fatalf("incidents = %d", len(incidents))
	}
	gangLinked := 0
	memberSet := make(map[string]bool)
	for _, id := range g.Nodes() {
		memberSet[id] = true
	}
	for _, inc := range incidents {
		if inc.ReportNumber == "" || inc.OffenseCode == "" || inc.Agency == "" {
			t.Fatalf("incomplete incident %+v", inc)
		}
		if inc.District < 1 || inc.District > cfg.Districts {
			t.Fatalf("district %d", inc.District)
		}
		if inc.Time.Before(cfg.Start) || inc.Time.After(cfg.Start.Add(cfg.Span)) {
			t.Fatalf("time %v outside window", inc.Time)
		}
		if len(inc.Persons) < 2 {
			t.Fatalf("incident without persons: %+v", inc)
		}
		hasVictim, hasSuspect := false, false
		linked := false
		for _, p := range inc.Persons {
			switch p.Role {
			case "victim":
				hasVictim = true
			case "suspect":
				hasSuspect = true
				if memberSet[p.ID] {
					linked = true
				}
			}
		}
		if !hasVictim || !hasSuspect {
			t.Fatalf("roles missing: %+v", inc.Persons)
		}
		if linked {
			gangLinked++
		}
	}
	frac := float64(gangLinked) / float64(len(incidents))
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("gang-linked fraction = %g, want ≈ 0.4", frac)
	}
	if _, err := GenerateCrimes(CrimeConfig{}, nil, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateTweetsKeywordAndGeoStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := socialgraph.Generate(socialgraph.GenConfig{Groups: 4, Members: 40, IntraDegree: 3, CrossDegree: 2}, rng)
	incidents, err := GenerateCrimes(DefaultCrimeConfig(testStart), g.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTweetConfig(testStart)
	cfg.Count = 1000
	tweets, err := GenerateTweets(cfg, incidents, g, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tweets) != 1000 {
		t.Fatalf("tweets = %d", len(tweets))
	}
	matcher := nlp.NewKeywordMatcher([]string{"gunshots", "police", "robbed", "shots", "fight"})
	crimeTweets := 0
	for _, tw := range tweets {
		if matcher.Matches(tw.Text) {
			crimeTweets++
		}
	}
	frac := float64(crimeTweets) / float64(len(tweets))
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("crime tweet fraction = %g, want ≈ 0.15", frac)
	}
	// Crime tweets must be geo-near some incident (within 5 km).
	checked := 0
	for _, tw := range tweets {
		if !matcher.Matches(tw.Text) {
			continue
		}
		nearest := 1e18
		for _, inc := range incidents {
			if d := geo.HaversineKm(tw.Location, inc.Location); d < nearest {
				nearest = d
			}
		}
		if nearest > 5 {
			t.Fatalf("crime tweet %s is %g km from any incident", tw.ID, nearest)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no crime tweets to check")
	}
	if _, err := GenerateTweets(TweetConfig{}, nil, nil, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateWaze(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cams, _ := CameraNetwork(50, rng)
	reports, err := GenerateWaze(200, cams, testStart, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 200 {
		t.Fatalf("reports = %d", len(reports))
	}
	jams := 0
	for _, r := range reports {
		if r.Severity < 1 || r.Severity > 5 {
			t.Fatalf("severity %d", r.Severity)
		}
		if r.Kind == WazeJam {
			jams++
			if r.UserReport {
				t.Fatal("jams are system-generated per the CCP feed")
			}
		}
	}
	if jams == 0 {
		t.Fatal("no jam reports generated")
	}
	if _, err := GenerateWaze(0, cams, testStart, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerate911(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	calls, err := Generate911(100, testStart, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 100 {
		t.Fatalf("calls = %d", len(calls))
	}
	cats := make(map[string]int)
	for _, c := range calls {
		cats[c.Category]++
		if c.Priority < 1 || c.Priority > 3 {
			t.Fatalf("priority %d", c.Priority)
		}
	}
	if len(cats) < 3 {
		t.Fatalf("categories = %v", cats)
	}
}
