package web

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// promSample is one parsed exposition sample line.
type promSample struct {
	name          string // full series name without the label block
	labels        string // "{k=\"v\",...}" or ""
	value         float64
	hasExemplar   bool
	exemplarTrace string
	exemplarValue float64
}

// Label values may contain backslash escapes (\\, \", \n) per the exposition
// spec, so the value pattern must accept escaped characters, not stop at the
// first quote.
var labelBlockRe = regexp.MustCompile(`^\{[A-Za-z_][A-Za-z0-9_]*="(?:[^"\\]|\\.)*"(,[A-Za-z_][A-Za-z0-9_]*="(?:[^"\\]|\\.)*")*\}$`)
var exemplarRe = regexp.MustCompile(`^# \{trace_id="([^"]+)"\} (\S+)$`)

// parsePromExposition is a minimal Prometheus text-format (0.0.4) parser:
// every line must be a HELP line, a TYPE line, or a well-formed sample with
// an optional exemplar trailer. Anything else is an error — this is the
// round-trip guarantee for whatever WritePrometheus emits.
func parsePromExposition(body string) (types map[string]string, samples []promSample, err error) {
	types = make(map[string]string)
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		lineNo := i + 1
		switch {
		case line == "":
			return nil, nil, fmt.Errorf("line %d: empty line", lineNo)
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			if fields := strings.SplitN(rest, " ", 2); len(fields) != 2 || fields[0] == "" || fields[1] == "" {
				return nil, nil, fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				return nil, nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[1])
			}
			types[fields[0]] = fields[1]
		case strings.HasPrefix(line, "#"):
			return nil, nil, fmt.Errorf("line %d: unexpected comment: %q", lineNo, line)
		default:
			s, err := parsePromSample(line)
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			samples = append(samples, s)
		}
	}
	return types, samples, nil
}

func parsePromSample(line string) (promSample, error) {
	var s promSample
	body := line
	if at := strings.Index(line, " # "); at >= 0 {
		body = line[:at]
		m := exemplarRe.FindStringSubmatch(line[at+1:])
		if m == nil {
			return s, fmt.Errorf("malformed exemplar trailer: %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return s, fmt.Errorf("exemplar value %q: %v", m[2], err)
		}
		s.hasExemplar, s.exemplarTrace, s.exemplarValue = true, m[1], v
	}
	name := body
	if brace := strings.Index(body, "{"); brace >= 0 {
		end := strings.Index(body, "}")
		if end < brace {
			return s, fmt.Errorf("unclosed label block: %q", body)
		}
		s.labels = body[brace : end+1]
		if !labelBlockRe.MatchString(s.labels) {
			return s, fmt.Errorf("malformed label block %q", s.labels)
		}
		name = body[:brace] + body[end+1:]
	}
	fields := strings.Fields(name)
	if len(fields) != 2 {
		return s, fmt.Errorf("want 'name value', got %q", body)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return s, fmt.Errorf("value %q: %v", fields[1], err)
	}
	s.name, s.value = fields[0], v
	return s, nil
}

// familyOf resolves a sample back to its TYPE family, unwrapping the
// histogram sub-series suffixes.
func familyOf(types map[string]string, name string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

// TestMetricsExpositionRoundTrips fetches /metrics after live traffic and a
// monitor tick and asserts every single line parses, every sample belongs
// to a declared family, histogram buckets are cumulative with the +Inf
// bucket equal to _count, and exemplar trailers resolve to retained traces.
func TestMetricsExpositionRoundTrips(t *testing.T) {
	srv, inf := newTestServer(t)
	inf.MonitorTick()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples, err := parsePromExposition(string(raw))
	if err != nil {
		t.Fatalf("exposition does not round-trip: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}

	// Every sample maps to a declared TYPE; values are finite.
	for _, s := range samples {
		fam, ok := familyOf(types, s.name)
		if !ok {
			t.Fatalf("sample %q has no TYPE line", s.name)
		}
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			t.Fatalf("sample %s%s is not finite: %v", s.name, s.labels, s.value)
		}
		if s.hasExemplar {
			if !strings.HasSuffix(s.name, "_bucket") {
				t.Fatalf("exemplar on non-bucket sample %s", s.name)
			}
			if _, err := inf.Tracer.Trace(s.exemplarTrace); err != nil {
				t.Fatalf("exemplar trace %q on %s unresolvable: %v", s.exemplarTrace, s.name, err)
			}
		}
		_ = fam
	}

	// Histogram invariants: buckets cumulative in document order, +Inf
	// bucket equals _count.
	lastBucket := make(map[string]float64) // family+labels-minus-le -> last cumulative
	infBucket := make(map[string]float64)
	countVal := make(map[string]float64)
	stripLe := regexp.MustCompile(`,?le="[^"]*"`)
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			key := strings.TrimSuffix(s.name, "_bucket") + stripLe.ReplaceAllString(s.labels, "")
			if s.value < lastBucket[key] {
				t.Fatalf("bucket for %s went backwards: %v < %v", key, s.value, lastBucket[key])
			}
			lastBucket[key] = s.value
			if strings.Contains(s.labels, `le="+Inf"`) {
				infBucket[key] = s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			if base := strings.TrimSuffix(s.name, "_count"); types[base] == "histogram" {
				countVal[base+s.labels] = s.value
			}
		}
	}
	if len(infBucket) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for key, cum := range infBucket {
		key = strings.TrimSuffix(key, "{}")
		if cnt, ok := countVal[key]; !ok || cnt != cum {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v (ok=%v)", key, cum, cnt, ok)
		}
	}

	// The monitoring families this PR adds must be present alongside one
	// exemplar-carrying histogram.
	for family, kind := range map[string]string{
		"cityinfra_telemetry_events_dropped_total": "counter",
		"cityinfra_pipeline_undelivered_total":     "counter",
		"cityinfra_tsdb_alerts_firing":             "gauge",
		"cityinfra_tsdb_alerts_pending":            "gauge",
		"cityinfra_tsdb_alert_state":               "gauge",
		"cityinfra_pipeline_ingest_seconds":        "histogram",
	} {
		if types[family] != kind {
			t.Fatalf("family %s: type %q, want %q", family, types[family], kind)
		}
	}
	anyExemplar := false
	for _, s := range samples {
		if s.hasExemplar {
			anyExemplar = true
			break
		}
	}
	if !anyExemplar {
		t.Fatal("no exemplar trailer anywhere in the exposition")
	}
}

// TestExpositionEscapedLabelValues proves a label value holding quotes,
// backslashes, and a newline survives the exposition round trip with
// spec-correct escapes: the emitted block uses exactly \\, \", and \n, the
// whole line still parses, and unescaping restores the original bytes.
func TestExpositionEscapedLabelValues(t *testing.T) {
	srv, inf := newTestServer(t)
	weird := "C:\\tmp \"x\"\nend"
	inf.Telemetry.Counter(
		telemetry.FormatName("cityinfra_test_escapes_total", telemetry.LabelSet{{Key: "path", Value: weird}}),
		"escape round-trip fixture").Add(3)
	inf.MonitorTick()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, samples, err := parsePromExposition(string(raw))
	if err != nil {
		t.Fatalf("exposition with escaped label values does not round-trip: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.name != "cityinfra_test_escapes_total" {
			continue
		}
		found = true
		if s.value != 3 {
			t.Fatalf("escaped sample value = %v, want 3", s.value)
		}
		want := `{path="C:\\tmp \"x\"\nend"}`
		if s.labels != want {
			t.Fatalf("label block = %q, want %q", s.labels, want)
		}
		inner := s.labels[strings.Index(s.labels, `"`)+1 : strings.LastIndex(s.labels, `"`)]
		got, err := telemetry.UnescapeLabelValue(inner)
		if err != nil {
			t.Fatalf("unescape %q: %v", inner, err)
		}
		if got != weird {
			t.Fatalf("round trip = %q, want %q", got, weird)
		}
	}
	if !found {
		t.Fatal("escaped sample missing from exposition")
	}
}
