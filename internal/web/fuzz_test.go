package web

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"testing"
)

// FuzzQueryParams serves arbitrary values for every query and path parameter
// the dashboard routes parse, on one booted stack. Each answer must be 200,
// 400 or 404: a bad parameter is the client's error, never a 5xx or a panic.
func FuzzQueryParams(f *testing.F) {
	f.Add("30.45", "-91.15", "8", "", "", "", "", "", "", "1")
	f.Add("NaN", "+Inf", "-1", "-9223372036854775808", "9223372036854775807", "0", "-1", "rate", "0", "0")
	f.Add("91", "181", "1e308", "x", "1e3", "9223372036854775807", "9223372036854775807", "burn", "9223372036854775807", "99999999999999999999")
	f.Add("-90", "180", "0x1p-1074", "1700000000", "1600000000", "1", "0", "cum", "1", "a/b")
	srv, _ := newTestServer(f)
	h := srv.Config.Handler
	f.Fuzz(func(t *testing.T, lat, lon, radius, from, to, limit, since, sortKey, max, id string) {
		near := url.Values{"lat": {lat}, "lon": {lon}, "radiusKm": {radius}}
		tweets := url.Values{"lat": {lat}, "lon": {lon}, "radiusKm": {radius}, "fromUnix": {from}, "toUnix": {to}}
		listing := url.Values{"limit": {limit}}
		events := url.Values{"limit": {limit}, "since": {since}}
		sorted := url.Values{"limit": {limit}, "sort": {sortKey}}
		reqs := []url.URL{
			{Path: "/api/tweets/near", RawQuery: tweets.Encode()},
			{Path: "/api/cameras/near", RawQuery: near.Encode()},
			{Path: "/api/crimes/district/" + id},
			{Path: "/api/traces", RawQuery: listing.Encode()},
			{Path: "/api/events", RawQuery: events.Encode()},
			{Path: "/api/control", RawQuery: listing.Encode()},
			{Path: "/api/incidents", RawQuery: listing.Encode()},
			{Path: "/api/graph", RawQuery: listing.Encode()},
			{Path: "/api/cameras", RawQuery: sorted.Encode()},
			{Path: "/api/profile", RawQuery: sorted.Encode()},
			{Path: "/api/alerts", RawQuery: url.Values{"max": {max}}.Encode()},
		}
		for _, u := range reqs {
			// An id such as ".." makes a path the mux redirects to its
			// clean form before any handler parses it.
			if path.Clean(u.Path) != u.Path {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u.RequestURI(), nil))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("GET %s = %d: %s", u.RequestURI(), rec.Code, rec.Body.String())
			}
		}
	})
}
