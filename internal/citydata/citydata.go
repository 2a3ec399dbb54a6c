// Package citydata generates the heterogeneous city data of the paper's
// data layer (§II.A): the DOTD highway camera network (Fig. 2), publicly
// available city data (crime incidents, 911 calls, potholes), online social
// network posts (keyword- and geo-filterable tweets), Waze-style
// crowd-sourced traffic reports, and the monthly individual-level law
// enforcement batches described in §II.A.4. All generators are
// deterministic given an injected *rand.Rand and base time.
package citydata

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/socialgraph"
)

// ErrBadConfig reports invalid generator parameters.
var ErrBadConfig = errors.New("citydata: invalid configuration")

// City is one of the Louisiana cities the DOTD camera network covers
// (paper §II.A.1 lists them explicitly).
type City struct {
	Name     string
	Location geo.Point
}

// Cities returns the nine cities named in the paper.
func Cities() []City {
	return []City{
		{Name: "New Orleans", Location: geo.Point{Lat: 29.9511, Lon: -90.0715}},
		{Name: "Baton Rouge", Location: geo.Point{Lat: 30.4515, Lon: -91.1871}},
		{Name: "Houma", Location: geo.Point{Lat: 29.5958, Lon: -90.7195}},
		{Name: "Shreveport", Location: geo.Point{Lat: 32.5252, Lon: -93.7502}},
		{Name: "Lafayette", Location: geo.Point{Lat: 30.2241, Lon: -92.0198}},
		{Name: "North Shore", Location: geo.Point{Lat: 30.4755, Lon: -90.1009}},
		{Name: "Lake Charles", Location: geo.Point{Lat: 30.2266, Lon: -93.2174}},
		{Name: "Monroe", Location: geo.Point{Lat: 32.5093, Lon: -92.1193}},
		{Name: "Alexandria", Location: geo.Point{Lat: 31.3113, Lon: -92.4451}},
	}
}

// LouisianaBBox bounds the deployment area.
func LouisianaBBox() geo.BBox {
	return geo.BBox{MinLat: 28.9, MaxLat: 33.1, MinLon: -94.1, MaxLon: -88.8}
}

// Camera is one DOTD highway camera.
type Camera struct {
	ID       string    `json:"id"`
	Corridor string    `json:"corridor"`
	Location geo.Point `json:"location"`
	CityNear string    `json:"cityNear"`
}

// corridor connects two cities along an interstate.
type corridor struct {
	name   string
	a, b   string
	shareN int // relative camera share
}

// CameraNetwork generates a camera deployment along the interstate
// corridors connecting the paper's cities. total should be >= 200 to match
// the paper's "more than 200 cameras".
func CameraNetwork(total int, rng *rand.Rand) ([]Camera, error) {
	if total < 9 {
		return nil, fmt.Errorf("%w: %d cameras", ErrBadConfig, total)
	}
	cities := make(map[string]geo.Point, 9)
	for _, c := range Cities() {
		cities[c.Name] = c.Location
	}
	corridors := []corridor{
		{name: "I-10 W", a: "Lake Charles", b: "Lafayette", shareN: 2},
		{name: "I-10", a: "Lafayette", b: "Baton Rouge", shareN: 3},
		{name: "I-10 E", a: "Baton Rouge", b: "New Orleans", shareN: 5},
		{name: "I-12", a: "Baton Rouge", b: "North Shore", shareN: 3},
		{name: "US-90", a: "New Orleans", b: "Houma", shareN: 2},
		{name: "I-49 S", a: "Lafayette", b: "Alexandria", shareN: 2},
		{name: "I-49 N", a: "Alexandria", b: "Shreveport", shareN: 2},
		{name: "I-20", a: "Shreveport", b: "Monroe", shareN: 2},
	}
	shareTotal := 0
	for _, c := range corridors {
		shareTotal += c.shareN
	}
	var cams []Camera
	id := 0
	for _, c := range corridors {
		n := total * c.shareN / shareTotal
		if n < 1 {
			n = 1
		}
		pa, pb := cities[c.a], cities[c.b]
		for i := 0; i < n; i++ {
			frac := float64(i) / float64(n)
			p := geo.Point{
				Lat: pa.Lat + frac*(pb.Lat-pa.Lat) + 0.01*rng.NormFloat64(),
				Lon: pa.Lon + frac*(pb.Lon-pa.Lon) + 0.01*rng.NormFloat64(),
			}
			near := c.a
			if frac > 0.5 {
				near = c.b
			}
			cams = append(cams, Camera{
				ID:       fmt.Sprintf("dotd-%03d", id),
				Corridor: c.name,
				Location: p,
				CityNear: near,
			})
			id++
		}
	}
	// Top up to exactly total with urban cameras around Baton Rouge (the
	// city's own surveillance feeds, §II.A.1).
	br := cities["Baton Rouge"]
	for len(cams) < total {
		cams = append(cams, Camera{
			ID:       fmt.Sprintf("brpd-%03d", id),
			Corridor: "urban",
			Location: geo.Point{Lat: br.Lat + 0.05*rng.NormFloat64(), Lon: br.Lon + 0.05*rng.NormFloat64()},
			CityNear: "Baton Rouge",
		})
		id++
	}
	return cams, nil
}

// CrimeType enumerates the §II.A.4 violent crime categories.
type CrimeType string

// Crime categories from the monthly law-enforcement transfer.
const (
	Homicide          CrimeType = "homicide"
	Robbery           CrimeType = "robbery"
	AggravatedAssault CrimeType = "aggravated-assault"
	WeaponOffense     CrimeType = "illegal-weapon-use"
)

// CrimeTypes lists the categories.
func CrimeTypes() []CrimeType {
	return []CrimeType{Homicide, Robbery, AggravatedAssault, WeaponOffense}
}

// Person is one individual named in an incident report.
type Person struct {
	ID   string `json:"id"`   // socialgraph member id or civilian id
	Role string `json:"role"` // "suspect" or "victim"
}

// Incident is one individual-level crime record (§II.A.4 fields).
type Incident struct {
	ReportNumber string    `json:"reportNumber"`
	Offense      CrimeType `json:"offense"`
	OffenseCode  string    `json:"offenseCode"`
	Address      string    `json:"address"`
	District     int       `json:"district"`
	Time         time.Time `json:"time"`
	Agency       string    `json:"agency"`
	Location     geo.Point `json:"location"`
	Persons      []Person  `json:"persons"`
}

// CrimeConfig tunes the incident generator.
type CrimeConfig struct {
	Count     int
	Districts int
	// GangFraction is the probability an incident involves gang members
	// from the social graph.
	GangFraction float64
	Start        time.Time
	Span         time.Duration
}

// DefaultCrimeConfig covers one month of incidents in Baton Rouge.
func DefaultCrimeConfig(start time.Time) CrimeConfig {
	return CrimeConfig{Count: 300, Districts: 12, GangFraction: 0.4, Start: start, Span: 30 * 24 * time.Hour}
}

// GenerateCrimes produces an incident batch. When members is non-empty,
// gang-linked incidents name 1–3 of its ids as suspects.
func GenerateCrimes(cfg CrimeConfig, members []string, rng *rand.Rand) ([]Incident, error) {
	if cfg.Count <= 0 || cfg.Districts <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	types := CrimeTypes()
	out := make([]Incident, cfg.Count)
	for i := range out {
		ct := types[rng.Intn(len(types))]
		inc := Incident{
			ReportNumber: fmt.Sprintf("BRPD-%d-%05d", cfg.Start.Year(), i),
			Offense:      ct,
			OffenseCode:  fmt.Sprintf("LA-RS-14:%d", 30+rng.Intn(65)),
			Address:      fmt.Sprintf("%d %s St", 100+rng.Intn(9899), []string{"Government", "Florida", "Plank", "Highland", "Perkins"}[rng.Intn(5)]),
			District:     1 + rng.Intn(cfg.Districts),
			Time:         cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Span)))),
			Agency:       "Baton Rouge PD",
			Location: geo.Point{
				Lat: br.Lat + 0.08*rng.NormFloat64(),
				Lon: br.Lon + 0.08*rng.NormFloat64(),
			},
		}
		inc.Persons = append(inc.Persons, Person{ID: fmt.Sprintf("civ-%05d", rng.Intn(50000)), Role: "victim"})
		if len(members) > 0 && rng.Float64() < cfg.GangFraction {
			for s := 0; s < 1+rng.Intn(3); s++ {
				inc.Persons = append(inc.Persons, Person{ID: members[rng.Intn(len(members))], Role: "suspect"})
			}
		} else {
			inc.Persons = append(inc.Persons, Person{ID: fmt.Sprintf("civ-%05d", rng.Intn(50000)), Role: "suspect"})
		}
		out[i] = inc
	}
	return out, nil
}

// Tweet is one social-media post.
type Tweet struct {
	ID       string    `json:"id"`
	Author   string    `json:"author"`
	Text     string    `json:"text"`
	Time     time.Time `json:"time"`
	Location geo.Point `json:"location"`
}

var crimeTweetTemplates = []string{
	"heard gunshots near %s, everyone stay safe",
	"police everywhere on %s right now, something happened",
	"somebody got robbed on %s smh",
	"shots fired by %s, streets are hot tonight",
	"fight broke out near %s, it's getting crazy",
}

var mundaneTweetTemplates = []string{
	"best gumbo in town at %s hands down",
	"traffic is moving fine on %s today",
	"beautiful sunset over %s tonight",
	"lsu game watch party at %s later",
	"coffee run to %s before work",
}

var placeNames = []string{
	"Government St", "Plank Rd", "Florida Blvd", "North Blvd", "Scenic Hwy",
	"Airline Hwy", "College Dr", "Perkins Rd",
}

// TweetConfig tunes the tweet generator.
type TweetConfig struct {
	Count int
	// CrimeFraction of tweets reference violence near an incident location.
	CrimeFraction float64
	// GangAuthorFraction of crime tweets are authored by graph members.
	GangAuthorFraction float64
	Start              time.Time
	Span               time.Duration
}

// DefaultTweetConfig matches one month of collection.
func DefaultTweetConfig(start time.Time) TweetConfig {
	return TweetConfig{Count: 2000, CrimeFraction: 0.15, GangAuthorFraction: 0.5, Start: start, Span: 30 * 24 * time.Hour}
}

// GenerateTweets produces tweets; crime tweets are geo-anchored near the
// given incidents (so the §IV.B time/place/person triangulation has signal)
// and are authored by graph members with probability GangAuthorFraction.
func GenerateTweets(cfg TweetConfig, incidents []Incident, g *socialgraph.Graph, rng *rand.Rand) ([]Tweet, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	var members []string
	if g != nil {
		members = g.Nodes()
	}
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	out := make([]Tweet, cfg.Count)
	for i := range out {
		place := placeNames[rng.Intn(len(placeNames))]
		tw := Tweet{
			ID:     fmt.Sprintf("tw-%06d", i),
			Author: fmt.Sprintf("user-%04d", rng.Intn(5000)),
		}
		isCrime := rng.Float64() < cfg.CrimeFraction && len(incidents) > 0
		if isCrime {
			inc := incidents[rng.Intn(len(incidents))]
			tw.Text = fmt.Sprintf(crimeTweetTemplates[rng.Intn(len(crimeTweetTemplates))], place)
			// Within ~1 km and ±2 h of the incident.
			tw.Location = geo.Point{
				Lat: inc.Location.Lat + 0.005*rng.NormFloat64(),
				Lon: inc.Location.Lon + 0.005*rng.NormFloat64(),
			}
			tw.Time = inc.Time.Add(time.Duration((rng.Float64()*4 - 2) * float64(time.Hour)))
			if len(members) > 0 && rng.Float64() < cfg.GangAuthorFraction {
				tw.Author = members[rng.Intn(len(members))]
			}
		} else {
			tw.Text = fmt.Sprintf(mundaneTweetTemplates[rng.Intn(len(mundaneTweetTemplates))], place)
			tw.Location = geo.Point{
				Lat: br.Lat + 0.1*rng.NormFloat64(),
				Lon: br.Lon + 0.1*rng.NormFloat64(),
			}
			tw.Time = cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Span))))
		}
		out[i] = tw
	}
	return out, nil
}

// WazeKind enumerates crowd-sourced report kinds.
type WazeKind string

// Waze report kinds from the Connected Citizens Program feed.
const (
	WazeJam      WazeKind = "jam"
	WazeAccident WazeKind = "accident"
	WazeHazard   WazeKind = "hazard"
	WazePothole  WazeKind = "pothole"
)

// WazeReport is one crowd-sourced traffic record.
type WazeReport struct {
	ID         string    `json:"id"`
	Kind       WazeKind  `json:"kind"`
	Severity   int       `json:"severity"` // 1..5
	Location   geo.Point `json:"location"`
	Time       time.Time `json:"time"`
	SpeedKmh   float64   `json:"speedKmh"`
	UserReport bool      `json:"userReport"` // user-reported vs system jam
}

// GenerateWaze produces crowd-sourced traffic reports along camera
// corridors.
func GenerateWaze(count int, cameras []Camera, start time.Time, rng *rand.Rand) ([]WazeReport, error) {
	if count <= 0 || len(cameras) == 0 {
		return nil, fmt.Errorf("%w: count=%d cameras=%d", ErrBadConfig, count, len(cameras))
	}
	kinds := []WazeKind{WazeJam, WazeAccident, WazeHazard, WazePothole}
	out := make([]WazeReport, count)
	for i := range out {
		cam := cameras[rng.Intn(len(cameras))]
		kind := kinds[rng.Intn(len(kinds))]
		out[i] = WazeReport{
			ID:       fmt.Sprintf("waze-%06d", i),
			Kind:     kind,
			Severity: 1 + rng.Intn(5),
			Location: geo.Point{
				Lat: cam.Location.Lat + 0.003*rng.NormFloat64(),
				Lon: cam.Location.Lon + 0.003*rng.NormFloat64(),
			},
			Time:       start.Add(time.Duration(rng.Int63n(int64(24 * time.Hour)))),
			SpeedKmh:   rng.Float64() * 110,
			UserReport: kind != WazeJam,
		}
	}
	return out, nil
}

// Call911 is one emergency call record from the open-data portal.
type Call911 struct {
	ID       string    `json:"id"`
	Category string    `json:"category"`
	Location geo.Point `json:"location"`
	Time     time.Time `json:"time"`
	Priority int       `json:"priority"`
}

// Generate911 produces emergency-call records around Baton Rouge.
func Generate911(count int, start time.Time, rng *rand.Rand) ([]Call911, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: %d calls", ErrBadConfig, count)
	}
	cats := []string{"shots-fired", "disturbance", "medical", "traffic-accident", "burglary", "overdose"}
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	out := make([]Call911, count)
	for i := range out {
		out[i] = Call911{
			ID:       fmt.Sprintf("911-%06d", i),
			Category: cats[rng.Intn(len(cats))],
			Location: geo.Point{
				Lat: br.Lat + 0.09*rng.NormFloat64(),
				Lon: br.Lon + 0.09*rng.NormFloat64(),
			},
			Time:     start.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour)))),
			Priority: 1 + rng.Intn(3),
		}
	}
	return out, nil
}
